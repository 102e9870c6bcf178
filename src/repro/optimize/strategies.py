"""Pluggable search strategies for design-space exploration.

Every strategy implements the :class:`SearchStrategy` protocol: given a
:class:`~repro.optimize.space.DesignSpace` and a batch evaluator, it decides
*which* candidates to evaluate and in what order, and returns the evaluated
``(point, record)`` pairs.  The strategies never evaluate anything themselves
-- candidate batches go through
:meth:`~repro.optimize.objectives.CandidateEvaluator.evaluate_batch`, which
dispatches to the memo-cached engines -- so every strategy inherits their
deduplication and caching.

Three built-ins cover the classic trade-offs:

:class:`GridSearch`
    Exhaustive enumeration in deterministic grid order (optionally truncated
    to a budget).  The reference strategy: every other search is a subset.
:class:`RandomSearch`
    Seeded uniform sampling without replacement.  Sub-linear coverage of
    large parameter grids; the same seed always draws the same candidates.
:class:`EvolutionarySearch`
    Seeded evolutionary refinement with successive halving: each generation
    keeps the top half of the population by scalarised score, mutates the
    survivors along random axes, and stops when the budget is exhausted or
    the space has no unseen neighbours left.  Because selection depends only
    on the (deterministic) objective records and the seeded RNG, the search
    trajectory is reproducible and backend-independent.
"""

from __future__ import annotations

import random
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.analysis.resultset import Record, ResultSet
from repro.optimize.objectives import Objective
from repro.optimize.pareto import scalarize
from repro.optimize.space import DesignPoint, DesignSpace
from repro.util.errors import ConfigurationError

#: Evaluates a candidate batch into one objective record per point.
BatchEvaluator = Callable[[Sequence[DesignPoint]], List[Record]]

#: One evaluated candidate: the point and its objective record.
Evaluated = Tuple[DesignPoint, Record]

#: Default candidate budget of the sampling strategies.
DEFAULT_BUDGET = 16


class SearchStrategy(Protocol):
    """What a search strategy must provide to drive an exploration."""

    #: Registry name of the strategy (``grid``/``random``/``evolutionary``).
    name: ClassVar[str]

    def search(
        self,
        space: DesignSpace,
        evaluate: BatchEvaluator,
        objectives: Sequence[Objective],
    ) -> List[Evaluated]:
        """Explore ``space`` and return the evaluated candidates, in order."""
        ...  # pragma: no cover - protocol


def _validated_budget(budget: Optional[int]) -> Optional[int]:
    """Reject non-positive explicit budgets fail-fast."""
    if budget is not None and budget < 1:
        raise ConfigurationError(f"search budget must be positive, got {budget}")
    return budget


class GridSearch:
    """Exhaustive enumeration of the design space.

    Parameters
    ----------
    budget:
        Optional cap; the first ``budget`` points of the deterministic grid
        order are evaluated.  ``None`` (the default) evaluates everything.
    """

    name: ClassVar[str] = "grid"

    def __init__(self, budget: Optional[int] = None):
        self._budget = _validated_budget(budget)

    def search(
        self,
        space: DesignSpace,
        evaluate: BatchEvaluator,
        objectives: Sequence[Objective],
    ) -> List[Evaluated]:
        """Evaluate the whole grid (or its first ``budget`` points)."""
        points = list(space.points())
        if self._budget is not None:
            points = points[: self._budget]
        return list(zip(points, evaluate(points)))


class RandomSearch:
    """Seeded uniform sampling of the design space without replacement.

    Parameters
    ----------
    budget:
        Number of candidates to draw (the whole space when it is smaller).
    seed:
        RNG seed; the same seed draws the same candidates in the same order.
    """

    name: ClassVar[str] = "random"

    def __init__(self, budget: Optional[int] = None, seed: int = 0):
        self._budget = _validated_budget(budget) or DEFAULT_BUDGET
        self._seed = seed

    def search(
        self,
        space: DesignSpace,
        evaluate: BatchEvaluator,
        objectives: Sequence[Objective],
    ) -> List[Evaluated]:
        """Draw and evaluate the seeded sample as one batch."""
        points = list(space.points())
        rng = random.Random(self._seed)
        count = min(self._budget, len(points))
        sample = [points[index] for index in rng.sample(range(len(points)), count)]
        return list(zip(sample, evaluate(sample)))


class EvolutionarySearch:
    """Seeded evolutionary refinement with successive halving.

    Each generation evaluates the unseen members of the population as one
    batch, ranks the population by equal-weight scalarised score (min-max
    normalised over everything seen so far), keeps the top half, and refills
    by mutating survivors along randomly chosen axes.  The search stops when
    the candidate budget is exhausted or no unseen mutation can be produced.

    Parameters
    ----------
    budget:
        Maximum number of distinct candidates to evaluate.
    seed:
        RNG seed for the initial population and the mutations.
    population:
        Generation size (halved by selection, refilled by mutation).
    """

    name: ClassVar[str] = "evolutionary"

    def __init__(
        self,
        budget: Optional[int] = None,
        seed: int = 0,
        population: int = 8,
    ):
        self._budget = _validated_budget(budget) or DEFAULT_BUDGET
        if population < 2:
            raise ConfigurationError(
                f"evolutionary population must be at least 2, got {population}"
            )
        self._seed = seed
        self._population = population

    def search(
        self,
        space: DesignSpace,
        evaluate: BatchEvaluator,
        objectives: Sequence[Objective],
    ) -> List[Evaluated]:
        """Run the generational loop until the budget is exhausted."""
        points = list(space.points())
        order: Dict[DesignPoint, int] = {
            point: index for index, point in enumerate(points)
        }
        rng = random.Random(self._seed)
        population = [
            points[index]
            for index in rng.sample(
                range(len(points)), min(self._population, len(points))
            )
        ]
        seen: Dict[DesignPoint, Record] = {}
        evaluated: List[Evaluated] = []
        while True:
            fresh = [point for point in population if point not in seen]
            fresh = fresh[: self._budget - len(seen)]
            if fresh:
                for point, record in zip(fresh, evaluate(fresh)):
                    seen[point] = record
                    evaluated.append((point, record))
            if len(seen) >= min(self._budget, len(points)):
                break
            survivors = self._select(population, seen, objectives, order)
            children = self._mutate(survivors, space, seen, rng, order)
            if not children:
                break
            population = survivors + children
        return evaluated

    def _select(
        self,
        population: Sequence[DesignPoint],
        seen: Dict[DesignPoint, Record],
        objectives: Sequence[Objective],
        order: Dict[DesignPoint, int],
    ) -> List[DesignPoint]:
        """Successive halving: the top half of the population by score."""
        scores = _scalarised_scores(seen, objectives)
        ranked = sorted(
            population, key=lambda point: (-scores[point], order[point])
        )
        return ranked[: max(1, len(ranked) // 2)]

    def _mutate(
        self,
        survivors: Sequence[DesignPoint],
        space: DesignSpace,
        seen: Dict[DesignPoint, Record],
        rng: random.Random,
        order: Dict[DesignPoint, int],
    ) -> List[DesignPoint]:
        """Refill the population with unseen single-axis mutations.

        Random mutation drives the exploration; when the random attempts run
        dry (large axes with few unseen values left), a deterministic scan
        of every survivor's neighbourhood fills the remainder, so the search
        only stops short of its budget when the survivors truly have no
        unseen admissible neighbours -- as the class docstring promises.
        """
        children: List[DesignPoint] = []
        produced = set()
        wanted = self._population - len(survivors)
        attempts = 0
        while len(children) < wanted and attempts < 8 * self._population:
            attempts += 1
            parent = survivors[rng.randrange(len(survivors))]
            child = self._mutant(parent, space, rng)
            if child is None or child in seen or child in produced:
                continue
            if child not in order:
                continue  # constraint-filtered neighbours are inadmissible
            produced.add(child)
            children.append(child)
        if len(children) < wanted:
            for parent in survivors:
                for child in self._neighbours(parent, space):
                    if child in seen or child in produced or child not in order:
                        continue
                    produced.add(child)
                    children.append(child)
                    if len(children) >= wanted:
                        return children
        return children

    @staticmethod
    def _neighbours(
        parent: DesignPoint, space: DesignSpace
    ) -> Iterator[DesignPoint]:
        """Every single-axis mutation of ``parent``, in deterministic order."""
        for name in space.pdn_names:
            if name != parent.pdn:
                yield DesignPoint(pdn=name, overrides=parent.overrides)
        current = dict(parent.overrides)
        for axis_name, values in space.parameter_axes:
            for value in values:
                if value == current.get(axis_name):
                    continue
                mutated = dict(current)
                mutated[axis_name] = value
                yield DesignPoint(
                    pdn=parent.pdn, overrides=tuple(sorted(mutated.items()))
                )

    @staticmethod
    def _mutant(
        parent: DesignPoint, space: DesignSpace, rng: random.Random
    ) -> Optional[DesignPoint]:
        """One single-axis mutation of ``parent`` (topology or a parameter)."""
        axes = len(space.parameter_axes) + 1
        choice = rng.randrange(axes)
        if choice == 0:
            alternatives = [name for name in space.pdn_names if name != parent.pdn]
            if not alternatives:
                return None
            return DesignPoint(
                pdn=alternatives[rng.randrange(len(alternatives))],
                overrides=parent.overrides,
            )
        axis_name, values = space.parameter_axes[choice - 1]
        current = dict(parent.overrides)
        alternatives = [value for value in values if value != current.get(axis_name)]
        if not alternatives:
            return None
        current[axis_name] = alternatives[rng.randrange(len(alternatives))]
        return DesignPoint(pdn=parent.pdn, overrides=tuple(sorted(current.items())))


def _scalarised_scores(
    seen: Dict[DesignPoint, Record], objectives: Sequence[Objective]
) -> Dict[DesignPoint, float]:
    """Equal-weight scalarisation over every record seen so far.

    Delegates to :func:`repro.optimize.pareto.scalarize`, so the selection
    pressure of the evolutionary strategy and the documented ``scalarize``
    semantics can never diverge.
    """
    resultset = ResultSet.from_records([seen[point] for point in seen])
    scores = scalarize(resultset, objectives).column("score")
    return dict(zip(seen, scores))


#: Registry of the built-in strategies, keyed by their CLI name.
STRATEGIES: Dict[str, Callable[..., SearchStrategy]] = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    EvolutionarySearch.name: EvolutionarySearch,
}


def make_strategy(
    strategy: object = None,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
) -> SearchStrategy:
    """Resolve a ``strategy=`` argument into a strategy instance.

    ``None`` selects :class:`GridSearch`; a string is looked up in
    :data:`STRATEGIES` and constructed with ``budget`` (and ``seed`` for the
    sampling strategies, default 0 -- the exhaustive grid draws nothing, so
    it takes no seed and ``seed`` does not affect it); an existing strategy
    instance passes through unchanged -- ``budget`` and ``seed`` must then
    be left unset, so a caller-supplied value is never silently ignored.
    """
    if strategy is None:
        return GridSearch(budget=budget)
    if isinstance(strategy, str):
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; choose from: "
                f"{', '.join(sorted(STRATEGIES))}"
            )
        if strategy == GridSearch.name:
            return GridSearch(budget=budget)
        return STRATEGIES[strategy](
            budget=budget, seed=seed if seed is not None else 0
        )
    if isinstance(strategy, (GridSearch, RandomSearch, EvolutionarySearch)) or (
        hasattr(strategy, "search") and hasattr(strategy, "name")
    ):
        if budget is not None:
            raise ConfigurationError(
                "budget conflicts with a pre-built strategy instance; "
                "configure the strategy's budget directly"
            )
        if seed is not None:
            raise ConfigurationError(
                "seed conflicts with a pre-built strategy instance; "
                "configure the strategy's seed directly"
            )
        return strategy  # type: ignore[return-value]
    raise ConfigurationError(
        f"strategy must be None, a name, or a SearchStrategy, "
        f"got {type(strategy).__name__}"
    )
