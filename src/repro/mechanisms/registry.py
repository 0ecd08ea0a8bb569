"""A single factory for every named mechanism in the library.

The experiments and examples frequently need "the four paper mechanisms for
this (n, α)" or "mechanism X by name from the command line"; this registry
keeps that lookup in one place.

>>> from repro.mechanisms.registry import create_mechanism
>>> gm = create_mechanism("GM", n=8, alpha=0.9)
>>> em = create_mechanism("EM", n=8, alpha=0.9)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.mechanism import Mechanism
from repro.mechanisms.exponential import exponential_mechanism
from repro.mechanisms.fair import explicit_fair_mechanism
from repro.mechanisms.geometric import geometric_mechanism
from repro.mechanisms.laplace import laplace_mechanism
from repro.mechanisms.randomized_response import nary_randomized_response
from repro.mechanisms.staircase import staircase_mechanism
from repro.mechanisms.uniform import uniform_mechanism
from repro.mechanisms.weakly_honest import weakly_honest_mechanism

#: Factories keyed by canonical name.  Every factory takes (n, alpha) plus
#: optional keyword arguments specific to the mechanism.
_FACTORIES: Dict[str, Callable[..., Mechanism]] = {
    "GM": geometric_mechanism,
    "EM": explicit_fair_mechanism,
    "UM": lambda n, alpha=1.0, **kw: uniform_mechanism(n, alpha=alpha),
    "WM": weakly_honest_mechanism,
    "NRR": nary_randomized_response,
    "EXP": exponential_mechanism,
    "LAPLACE": laplace_mechanism,
    "STAIRCASE": staircase_mechanism,
}

#: Aliases accepted by :func:`create_mechanism`.
_ALIASES: Dict[str, str] = {
    "GEOMETRIC": "GM",
    "FAIR": "EM",
    "EXPLICIT_FAIR": "EM",
    "UNIFORM": "UM",
    "WEAKLY_HONEST": "WM",
    "WEAK_HONEST": "WM",
    "RANDOMIZED_RESPONSE": "NRR",
    "EXPONENTIAL": "EXP",
    "LAP": "LAPLACE",
}

#: The four mechanisms compared throughout the paper's evaluation.
PAPER_MECHANISMS: Tuple[str, ...] = ("GM", "WM", "EM", "UM")

#: Factories that build closed-form (matrix-free) representations.  The
#: remaining factories (EXP with arbitrary quality functions, LAPLACE's
#: transcendental CDF differences, WM's LP solve) stay dense/sparse.
CLOSED_FORM_MECHANISMS: Tuple[str, ...] = ("GM", "EM", "UM", "NRR", "STAIRCASE")


def is_closed_form(name: str) -> bool:
    """Whether the named factory produces a closed-form representation."""
    return canonical_name(name) in CLOSED_FORM_MECHANISMS


def rebuild_closed_form(payload) -> Mechanism:
    """Rebuild a closed-form mechanism from its serialised descriptor.

    Inverse of :meth:`~repro.core.mechanism.ClosedFormMechanism.to_dict`:
    the descriptor stores the factory key plus the keyword arguments that
    reproduce the factory call, so deserialisation re-runs the factory and
    restores the recorded name/alpha/metadata.
    """
    factory = canonical_name(str(payload["factory"]))
    if factory not in CLOSED_FORM_MECHANISMS:
        raise ValueError(f"{factory!r} is not a closed-form factory")
    mechanism = _FACTORIES[factory](n=int(payload["n"]), **dict(payload.get("params", {})))
    mechanism.name = str(payload.get("name", mechanism.name))
    mechanism.alpha = payload.get("alpha", mechanism.alpha)
    mechanism.metadata = dict(payload.get("metadata", {}))
    return mechanism


def available_mechanisms() -> List[str]:
    """Canonical names of every mechanism the registry can build."""
    return sorted(_FACTORIES)


def canonical_name(name: str) -> str:
    """Resolve aliases and case to a canonical registry key."""
    key = name.strip().upper().replace("-", "_").replace(" ", "_")
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown mechanism {name!r}; available: {', '.join(available_mechanisms())}"
        )
    return key


def create_mechanism(name: str, n: int, alpha: float, **kwargs) -> Mechanism:
    """Build a mechanism by name for the given group size and privacy level."""
    return _FACTORIES[canonical_name(name)](n=n, alpha=alpha, **kwargs)


def paper_mechanisms(n: int, alpha: float) -> List[Mechanism]:
    """The four mechanisms of the paper's experiments (GM, WM, EM, UM), in order."""
    return [create_mechanism(name, n=n, alpha=alpha) for name in PAPER_MECHANISMS]
