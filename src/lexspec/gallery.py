"""Built-in example inputs for the CLI and the test suite.

Entries 3.7/1 .. 3.7/8 are small two-dimensional observables on k-perfect
algebras; 3.7/9 is served as a corrected synthetic resolution (see note);
``saturate/K`` and ``patho/M`` build the parametric families.
"""

from __future__ import annotations

from .lexalg import AlgebraSignature, LexElement
from .observable import DiscreteObservable, make_observable
from .spectral import StepResolution
from .verify import mismatch_resolution, pathological_family, saturating_family

NOTE_3_7_9 = (
    "entry 3.7/9 ships as a corrected synthetic resolution: the original atom "
    "data are inconsistent for a k=2 algebra (weight (0; -3) lies outside the "
    "unit interval, and a level-3 set is referenced), so an equivalent "
    "resolution with the intended behaviour is analyzed instead -- its two "
    "adjoined blocks have infima (1; 2) and (1; -2), which sum to the unit, "
    "yet reconstruction mismatches because the level-0 set carries a nonzero "
    "infinitesimal value."
)

# name -> (k, [(point, (h, g))...])
_OBSERVABLE_CASES: dict[str, tuple[int, list[tuple[tuple[int, int], tuple[int, int]]]]] = {
    "3.7/1": (2, [((1, 1), (0, 1)), ((2, 2), (1, 2)), ((3, 3), (1, -3))]),
    "3.7/2": (2, [((1, 1), (0, 1)), ((2, 2), (1, 2)), ((3, 2), (1, -3))]),
    "3.7/3": (2, [((1, 1), (0, 1)), ((2, 2), (1, 2)), ((2, 3), (1, -3))]),
    "3.7/4": (2, [((1, 1), (0, 1)), ((3, 3), (1, 2)), ((4, 2), (1, -3))]),
    "3.7/5": (2, [((1, 1), (0, 2)), ((2, 2), (2, -2))]),
    "3.7/6": (3, [((1, 2), (1, 1)), ((2, 1), (1, 2)), ((3, 3), (1, -3))]),
    "3.7/7": (3, [((1, 3), (1, 1)), ((2, 2), (1, 2)), ((3, 1), (1, -3))]),
    "3.7/8": (3, [((1, 2), (1, 1)), ((2, 1), (2, -1))]),
}


class UnknownExampleError(ValueError):
    pass


def example_names() -> list[str]:
    return [*sorted(_OBSERVABLE_CASES), "3.7/9", "saturate/K", "patho/M"]


def build_observable(name: str) -> DiscreteObservable:
    k, atoms = _OBSERVABLE_CASES[name]
    sig = AlgebraSignature(k, 1)
    return make_observable(sig, 2, [(p, LexElement(sig, h, (g,))) for p, (h, g) in atoms])


def build_example(
    name: str, k: int | None = None
) -> tuple[str, DiscreteObservable | StepResolution, str | None]:
    """Resolve a gallery name to ("observable"|"resolution", object, note)."""
    if name in _OBSERVABLE_CASES:
        return "observable", build_observable(name), None
    if name == "3.7/9":
        return "resolution", mismatch_resolution(), NOTE_3_7_9
    family, _, param = name.partition("/")
    if family in ("saturate", "patho"):
        try:
            m = int(param)
            if family == "saturate":
                return "observable", saturating_family(m), None
            return "resolution", pathological_family(m, k if k is not None else 2), None
        except ValueError as exc:  # a bad, nonpositive or oversized parameter
            raise UnknownExampleError(f"bad {family} parameter in {name!r}: {exc}") from None
    raise UnknownExampleError(
        f"unknown example {name!r}; known: {', '.join(example_names())}"
    )
