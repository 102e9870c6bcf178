"""Command-line interface for the FlexWatts / PDNspot reproduction.

The CLI exposes the most common analyses without writing any Python::

    python -m repro etee --tdp 4 --workload cpu_multi_thread
    python -m repro performance --tdp 4 --suite spec --json
    python -m repro battery-life
    python -m repro cost --tdp 18
    python -m repro figures --quick
    python -m repro predict --tdp 50 --ar 0.6 --workload graphics
    python -m repro sweep --tdps 4 18 50 --ars 0.4 0.56 --format csv
    python -m repro simulate --tdps 4 18 50 --cache-dir ~/.cache/repro
    python -m repro export fig3 --format json --output fig3.json
    python -m repro simulate --scenario bursty-interactive --format json
    python -m repro optimize --strategy random --budget 12 --seed 7
    python -m repro cache stats --cache-dir ~/.cache/repro
    python -m repro cache prune --cache-dir ~/.cache/repro --older-than 604800
    python -m repro serve --cache-dir ~/.cache/repro
    python -m repro sweep --tdps 4 18 50 --server http://127.0.0.1:8737
    python -m repro sweep --tdps 4 18 50 --trace t.json

Every sub-command prints a plain-text table by default (no plotting
dependency); ``--json`` (and ``--format json|csv`` on ``sweep``/``export``)
emits the underlying data for scripting.  The ``sweep`` command builds a
declarative :class:`~repro.analysis.study.Study` from its axis flags and runs
it through the cached :meth:`PdnSpot.run` engine, which evaluates the
grid's cache misses as one batch on the calling thread.
``--cache-dir DIR`` (on ``simulate``, ``optimize``, ``figures`` and
``serve``) persists simulations in the on-disk store (see
:mod:`repro.cache`): the first run populates the directory, every later
run -- in any process -- replays its simulations from disk, and ``repro
cache stats``/``repro cache prune`` inspect and reclaim it.
``repro serve`` keeps one warm process behind an HTTP/JSON API (see
:mod:`repro.serve`): concurrent clients coalesce onto single-flight
evaluations, and ``--server URL`` on ``sweep``/``simulate``/``optimize``
routes through it with automatic local fallback when it is unreachable.
``--trace FILE`` (on ``sweep``/``simulate``/``optimize``/``figures``/
``serve``) records every layer's spans through :mod:`repro.obs` and writes
a Chrome-trace JSON file on exit (see :doc:`/guides/observability`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.reporting import format_mapping_table, format_table
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.serve.protocol import (  # noqa: F401 - canonical home; re-exported
    build_optimize_space,
    build_simulate_study,
    build_sweep_study,
)
from repro.util.errors import ConfigurationError, ReproError
from repro.workloads.scenarios import DEFAULT_SEED, available_scenarios

if TYPE_CHECKING:  # each handler imports what its command runs
    from repro.analysis.pdnspot import PdnSpot
    from repro.analysis.resultset import ResultSet

PDN_ORDER = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")

#: Datasets the ``export`` sub-command can serialise.
EXPORT_DATASETS = ("fig2a", "fig2b", "fig3", "fig4-grid", "fig4-power-states")


def _workload_type(name: str) -> WorkloadType:
    try:
        return WorkloadType(name)
    except ValueError as error:
        valid = ", ".join(member.value for member in WorkloadType)
        raise argparse.ArgumentTypeError(f"unknown workload type {name!r}; choose from: {valid}") from error


def _power_state(name: str) -> PackageCState:
    try:
        return PackageCState(name.upper())
    except ValueError as error:
        valid = ", ".join(member.value for member in PackageCState if member is not PackageCState.C0)
        raise argparse.ArgumentTypeError(f"unknown power state {name!r}; choose from: {valid}") from error


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the persistent-cache flag of the commands that simulate."""
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist simulations in this directory: the first run populates "
        "it, later runs (in any process) replay their simulations from it; "
        "results are bit-identical either way",
    )


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the remote-evaluation flag shared by the grid commands."""
    parser.add_argument(
        "--server", default=None, metavar="URL",
        help="route the evaluation through a running `repro serve` daemon "
        "(e.g. http://127.0.0.1:8737); output is bit-identical to a local "
        "run, and an unreachable server falls back to local engines with a "
        "warning on stderr",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the Chrome-trace export flag shared by the grid commands."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace of the run and write it to FILE as "
        "Chrome-trace JSON (open in chrome://tracing or ui.perfetto.dev); "
        "spans cover start-up, the dispatch path, cache tiers and engines",
    )


def _package_version() -> str:
    """The version of the code actually running.

    ``repro.__version__`` is the single source of truth -- the distribution
    metadata is *derived* from it at build time (``pyproject.toml``'s
    dynamic version), so reading the attribute always matches the running
    code even when a stale wheel is installed alongside a newer checkout.
    """
    from repro import __version__

    return __version__


class _SubcommandParser(argparse.ArgumentParser):
    """A sub-command parser that can add its flags the first time it is used.

    ``optimize`` takes its flags' choices from the optimizer's objective
    and strategy registries; adding them up front would import the
    optimizer, and the simulator behind it, for every command.  Parsing or
    formatting help adds them.
    """

    def __init__(self, *args,
                 add_flags: Optional[Callable[[argparse.ArgumentParser], None]] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def _flags(self) -> None:
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)

    def parse_known_args(self, args=None, namespace=None):
        self._flags()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._flags()
        return super().format_usage()

    def format_help(self) -> str:
        self._flags()
        return super().format_help()


def _optimize_flags(optimize: argparse.ArgumentParser) -> None:
    from repro.optimize.objectives import DEFAULT_OBJECTIVES, OBJECTIVES
    from repro.optimize.strategies import STRATEGIES

    optimize.add_argument(
        "--objectives", nargs="+", choices=sorted(OBJECTIVES),
        default=list(DEFAULT_OBJECTIVES), metavar="NAME",
        help="objectives to optimise (default: "
        + " ".join(DEFAULT_OBJECTIVES)
        + "; available: " + ", ".join(sorted(OBJECTIVES)) + ")",
    )
    optimize.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="grid",
        help="search strategy (default: grid; random and evolutionary are "
        "seeded and reproducible)",
    )
    optimize.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="candidate budget (default: exhaustive for grid, 16 for the "
        "sampling strategies)",
    )
    optimize.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed of the sampling strategies (default: 0)",
    )
    optimize.add_argument(
        "--pdns", nargs="+", default=None,
        help="topology axis of the design space (default: every registered PDN)",
    )
    optimize.add_argument(
        "--param", action="append", default=None, metavar="NAME=V1,V2,...",
        help="add a technology-parameter axis (component sizing), e.g. "
        "--param ivr_tolerance_band_v=0.015,0.020,0.025; repeatable",
    )
    optimize.add_argument(
        "--tdps", type=float, nargs="+", default=None, metavar="W",
        help="TDP set candidates are judged under (default: 4 18 50)",
    )
    optimize.add_argument(
        "--scenario", nargs="+", choices=available_scenarios(), default=None,
        metavar="NAME",
        help="scenario traces behind the power/energy objectives "
        "(default: bursty-interactive)",
    )
    optimize.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    optimize.add_argument("--output", default=None, help="write to this file instead of stdout")
    _add_cache_flag(optimize)
    _add_server_flag(optimize)
    _add_trace_flag(optimize)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlexWatts / PDNspot reproduction command-line interface",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    etee = subparsers.add_parser("etee", help="compare ETEE across PDNs at one operating point")
    etee.add_argument("--tdp", type=float, default=18.0, help="thermal design power in watts")
    etee.add_argument("--ar", type=float, default=0.56, help="application ratio (0-1]")
    etee.add_argument(
        "--workload", type=_workload_type, default=WorkloadType.CPU_MULTI_THREAD,
        help="workload type (cpu_single_thread, cpu_multi_thread, graphics)",
    )
    etee.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    performance = subparsers.add_parser(
        "performance", help="suite-average performance normalised to the IVR PDN"
    )
    performance.add_argument("--tdp", type=float, default=4.0)
    performance.add_argument(
        "--suite", choices=("spec", "3dmark"), default="spec", help="benchmark suite"
    )
    performance.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    battery = subparsers.add_parser("battery-life", help="battery-life average power per PDN")
    battery.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    cost = subparsers.add_parser("cost", help="BOM and board area normalised to the IVR PDN")
    cost.add_argument("--tdp", type=float, default=18.0)
    cost.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    figures = subparsers.add_parser("figures", help="regenerate every paper figure")
    figures.add_argument(
        "--quick", action="store_true", help="skip the (slow) Fig. 4 validation grid"
    )
    _add_cache_flag(figures)
    _add_trace_flag(figures)

    predict = subparsers.add_parser(
        "predict", help="show the FlexWatts mode Algorithm 1 selects for an operating point"
    )
    predict.add_argument("--tdp", type=float, default=18.0)
    predict.add_argument("--ar", type=float, default=0.56)
    predict.add_argument("--workload", type=_workload_type, default=WorkloadType.CPU_MULTI_THREAD)
    predict.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    sweep = subparsers.add_parser(
        "sweep",
        help="run a declarative study grid (TDP x AR x workload x power state)",
    )
    sweep.add_argument(
        "--tdps", type=float, nargs="+", required=True, metavar="W",
        help="TDP levels of the grid, in watts",
    )
    sweep.add_argument(
        "--ars", type=float, nargs="+", default=None, metavar="AR",
        help="application ratios of the active part of the grid (default 0.56)",
    )
    sweep.add_argument(
        "--workloads", type=_workload_type, nargs="+", default=None,
        help="workload types of the active part (default cpu_multi_thread)",
    )
    sweep.add_argument(
        "--power-states", type=_power_state, nargs="+", default=None,
        help="package C-states (C0_MIN, C2, C3, C6, C7, C8); without --ars or "
        "--workloads the grid is idle-only, with them the active rows are kept too",
    )
    sweep.add_argument(
        "--pdns", nargs="+", default=None, help="restrict to these PDN architectures"
    )
    sweep.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    sweep.add_argument("--output", default=None, help="write to this file instead of stdout")
    _add_server_flag(sweep)
    _add_trace_flag(sweep)

    simulate = subparsers.add_parser(
        "simulate",
        help="replay scenario traces on every PDN through the interval simulator",
    )
    simulate.add_argument(
        "--scenario", nargs="+", choices=available_scenarios(), default=None,
        metavar="NAME",
        help="scenario trace generator(s) to replay (default: all registered: "
        + ", ".join(available_scenarios()) + ")",
    )
    simulate.add_argument(
        "--tdps", type=float, nargs="+", default=[18.0], metavar="W",
        help="TDP levels to simulate at, in watts (default: 18)",
    )
    simulate.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"trace-generator seed (default: {DEFAULT_SEED})",
    )
    simulate.add_argument(
        "--pdns", nargs="+", default=None, help="restrict to these PDN architectures"
    )
    simulate.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format (default: table)",
    )
    simulate.add_argument("--output", default=None, help="write to this file instead of stdout")
    _add_cache_flag(simulate)
    _add_server_flag(simulate)
    _add_trace_flag(simulate)

    subparsers.add_parser(
        "optimize",
        help="search PDN designs against multiple objectives and extract the "
        "Pareto front",
        add_flags=_optimize_flags,
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-running evaluation service (warm caches behind "
        "an HTTP/JSON API with request coalescing)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="TCP port (default: 8737; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="default per-request evaluation deadline (default: 60); "
        "requests may lower or raise it up to --max-timeout",
    )
    serve.add_argument(
        "--max-timeout", type=float, default=600.0, metavar="SECONDS",
        help="hard cap on client-supplied timeout_s values (default: 600)",
    )
    serve.add_argument(
        "--max-units", type=int, default=50_000, metavar="N",
        help="per-request budget: the most evaluation units one request may "
        "decompose into before it is rejected with 413 (default: 50000)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.0, metavar="SECONDS",
        help="extra coalescing window before dispatching a batch (default: "
        "0, flush every event-loop tick)",
    )
    _add_cache_flag(serve)
    _add_trace_flag(serve)

    cache = subparsers.add_parser(
        "cache", help="inspect or prune a persistent on-disk simulation cache"
    )
    cache.add_argument(
        "action", choices=("stats", "prune"),
        help="stats: per-namespace entry counts and sizes; prune: delete "
        "entries (all, or only those older than --older-than)",
    )
    cache.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="the cache directory to inspect or prune",
    )
    cache.add_argument(
        "--older-than", type=float, default=None, metavar="SECONDS",
        help="prune only entries older than this many seconds "
        "(default: prune everything)",
    )
    cache.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    export = subparsers.add_parser(
        "export", help="export a paper-figure dataset as JSON or CSV"
    )
    export.add_argument("dataset", choices=EXPORT_DATASETS, help="dataset to export")
    export.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format (default: json)",
    )
    export.add_argument("--output", default=None, help="write to this file instead of stdout")

    return parser


# --------------------------------------------------------------------------- #
# Sub-command implementations (each returns the text it prints, for testing)
# --------------------------------------------------------------------------- #
def _resultset_table(resultset: ResultSet, title: str = "") -> str:
    """Render any :class:`ResultSet` as an aligned plain-text table."""
    from repro.analysis.resultset import MISSING

    rows = [
        ["" if cell is MISSING else cell for cell in (record.get(column, MISSING) for column in resultset.columns)]
        for record in resultset.to_records()
    ]
    return format_table(list(resultset.columns), rows, title=title or resultset.name)


def run_etee(
    spot: PdnSpot, tdp_w: float, ar: float, workload: WorkloadType, as_json: bool = False
) -> str:
    table = spot.compare_etee(tdp_w=tdp_w, application_ratio=ar, workload_type=workload)
    if as_json:
        return json.dumps(
            {
                "tdp_w": tdp_w,
                "application_ratio": ar,
                "workload_type": workload.value,
                "etee": table,
            },
            indent=2,
        )
    rows = [[name, table[name]] for name in PDN_ORDER if name in table]
    return format_table(
        ["PDN", "ETEE"], rows, title=f"ETEE at {tdp_w:g} W, AR={ar:g}, {workload.value}"
    )


def run_performance(spot: PdnSpot, tdp_w: float, suite: str, as_json: bool = False) -> str:
    from repro.workloads.graphics import THREEDMARK06_BENCHMARKS
    from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS

    benchmarks = SPEC_CPU2006_BENCHMARKS if suite == "spec" else THREEDMARK06_BENCHMARKS
    table = spot.compare_performance(benchmarks, tdp_w)
    if as_json:
        return json.dumps(
            {"tdp_w": tdp_w, "suite": suite, "performance_vs_baseline": table}, indent=2
        )
    rows = [[name, table[name]] for name in PDN_ORDER if name in table]
    return format_table(
        ["PDN", "perf vs IVR"],
        rows,
        title=f"{'SPEC CPU2006' if suite == 'spec' else '3DMark06'} at {tdp_w:g} W",
    )


def run_battery_life(spot: PdnSpot, as_json: bool = False) -> str:
    table = spot.compare_battery_life_power()
    if as_json:
        return json.dumps({"average_power_w": table}, indent=2)
    return format_mapping_table(
        table,
        row_key_header="workload",
        title="Battery-life average power (W)",
    )


def run_cost(spot: PdnSpot, tdp_w: float, as_json: bool = False) -> str:
    bom = spot.compare_bom(tdp_w)
    area = spot.compare_board_area(tdp_w)
    if as_json:
        return json.dumps(
            {"tdp_w": tdp_w, "bom_vs_baseline": bom, "board_area_vs_baseline": area},
            indent=2,
        )
    rows = [[name, bom[name], area[name]] for name in PDN_ORDER if name in bom]
    return format_table(
        ["PDN", "BOM vs IVR", "area vs IVR"], rows, title=f"Cost and board area at {tdp_w:g} W"
    )


def run_figures(quick: bool, cache_dir: Optional[str] = None) -> str:
    from repro.experiments.runner import run_all_experiments

    outputs = run_all_experiments(include_validation=not quick, cache_dir=cache_dir)
    sections = []
    for key in sorted(outputs):
        sections.append(f"===== {key} =====\n{outputs[key]}")
    return "\n\n".join(sections)


def run_predict(
    spot: PdnSpot, tdp_w: float, ar: float, workload: WorkloadType, as_json: bool = False
) -> str:
    from repro.core.hybrid_vr import PdnMode
    from repro.core.runtime_estimator import RuntimeInputEstimator
    from repro.pdn.base import OperatingConditions

    flexwatts = spot.pdn("FlexWatts")
    conditions = OperatingConditions.for_active_workload(tdp_w, ar, workload)
    telemetry = RuntimeInputEstimator.estimate_from_conditions(conditions)
    mode = flexwatts.predict_mode_from_telemetry(telemetry)
    predictor = flexwatts.predictor
    ivr_estimate = predictor.estimate_etee(PdnMode.IVR_MODE, telemetry)
    ldo_estimate = predictor.estimate_etee(PdnMode.LDO_MODE, telemetry)
    if as_json:
        return json.dumps(
            {
                "tdp_w": tdp_w,
                "application_ratio": ar,
                "workload_type": workload.value,
                "selected_mode": mode.value,
                "ivr_mode_etee_estimate": ivr_estimate,
                "ldo_mode_etee_estimate": ldo_estimate,
            },
            indent=2,
        )
    rows = [
        ["selected mode", mode.value],
        ["IVR-Mode ETEE estimate", ivr_estimate],
        ["LDO-Mode ETEE estimate", ldo_estimate],
    ]
    return format_table(
        ["quantity", "value"],
        rows,
        title=f"Algorithm 1 at {tdp_w:g} W, AR={ar:g}, {workload.value}",
    )


def _render(resultset: ResultSet, output_format: str, title: str = "") -> str:
    if output_format == "json":
        return resultset.to_json(indent=2)
    if output_format == "csv":
        return resultset.to_csv()
    return _resultset_table(resultset, title=title)


def _remote_evaluate(server: str, endpoint: str, **fields):
    """One remote evaluation, or ``None`` when the daemon is unreachable.

    Only :class:`~repro.serve.client.ServerUnavailable` falls back -- the
    server rebuilding the same grid from the same fields makes the fallback
    (and the remote path) bit-identical to a local run.  Server-side
    *errors* (schema, budget, deadline) are request problems and propagate
    as :class:`ReproError` for ``main`` to render.
    """
    from repro.serve.client import ServeClient, ServerUnavailable

    try:
        with ServeClient(server) as client:
            return getattr(client, endpoint)(**fields)
    except ServerUnavailable as error:
        print(
            f"warning: {error}; falling back to local evaluation",
            file=sys.stderr,
        )
        return None


def _remote_resultset(server: str, endpoint: str, **fields) -> Optional[ResultSet]:
    """The result set of one remote evaluation (``None``: fall back local)."""
    response = _remote_evaluate(server, endpoint, **fields)
    return response.resultset if response is not None else None


def run_sweep(
    spot: PdnSpot,
    tdps: Sequence[float],
    ars: Optional[Sequence[float]] = None,
    workloads: Optional[Sequence[WorkloadType]] = None,
    power_states: Optional[Sequence[PackageCState]] = None,
    pdns: Optional[Sequence[str]] = None,
    output_format: str = "table",
    server: Optional[str] = None,
) -> str:
    if server is not None:
        resultset = _remote_resultset(
            server, "sweep", tdps=tdps, ars=ars, workloads=workloads,
            power_states=power_states, pdns=pdns,
        )
        if resultset is not None:
            return _render(resultset, output_format, title="Study sweep")
    study = build_sweep_study(tdps, ars, workloads, power_states, pdns)
    resultset = spot.run(study)
    return _render(resultset, output_format, title="Study sweep")


def run_simulate(
    scenarios: Optional[Sequence[str]] = None,
    tdps: Sequence[float] = (18.0,),
    seed: int = DEFAULT_SEED,
    pdns: Optional[Sequence[str]] = None,
    output_format: str = "table",
    cache_dir: Optional[str] = None,
    server: Optional[str] = None,
) -> str:
    """Run scenario simulations and render the summary result set.

    ``--cache-dir`` persists every simulation, so an identical later run --
    in any process -- replays from disk.  ``--server`` routes the grid
    through a running daemon instead (same output, shared warm cache).
    """
    if server is not None:
        resultset = _remote_resultset(
            server, "simulate", scenarios=scenarios, tdps=tdps, seed=seed, pdns=pdns
        )
        if resultset is not None:
            return _render(resultset, output_format, title="Scenario simulation")
    from repro.sim.study import run_sim

    study = build_simulate_study(scenarios, tdps, seed, pdns)
    resultset = run_sim(study, cache_dir=cache_dir)
    return _render(resultset, output_format, title="Scenario simulation")


def parse_parameter_axes(specs: Optional[Sequence[str]]) -> list:
    """Parse repeated ``--param NAME=V1,V2,...`` flags into axis pairs.

    Raises :class:`ReproError` (rendered as a clean ``error: ...`` line by
    ``main``) on a malformed spec or a non-numeric value -- every scalar
    technology parameter is numeric, so string tokens are always typos.
    """
    axes = []
    for spec in specs or ():
        name, separator, values = spec.partition("=")
        if not separator or not name or not values:
            raise ConfigurationError(
                f"invalid --param {spec!r}; expected NAME=V1,V2,..."
            )
        parsed = []
        for token in values.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                parsed.append(float(token))
            except ValueError:
                raise ConfigurationError(
                    f"--param {spec!r} value {token!r} is not a number"
                ) from None
        if not parsed:
            raise ConfigurationError(f"--param {spec!r} lists no values")
        axes.append((name, parsed))
    return axes


def _render_optimize(
    results: ResultSet, front: ResultSet, knee, strategy: str, output_format: str
) -> str:
    """Render one search outcome (shared by the local and ``--server`` paths)."""
    rendered = _render(
        results, output_format, title=f"Design-space search ({strategy})"
    )
    if output_format != "table":
        return rendered

    def candidate_label(record) -> str:
        """One candidate's display label: the PDN plus its sizing, if any."""
        label = str(record["pdn"])
        if "parameters" in record:
            label += f" {record['parameters']}"
        return label

    front_labels = ", ".join(
        candidate_label(record) for record in front.to_records()
    )
    footer = (
        f"Pareto front: {front_labels}\n"
        f"Knee point (balanced pick): {candidate_label(knee)}"
    )
    return f"{rendered}\n\n{footer}"


def run_optimize(
    pdns: Optional[Sequence[str]] = None,
    param_specs: Optional[Sequence[str]] = None,
    objectives: Optional[Sequence[str]] = None,
    strategy: str = "grid",
    budget: Optional[int] = None,
    seed: int = 0,
    tdps: Optional[Sequence[float]] = None,
    scenarios: Optional[Sequence[str]] = None,
    output_format: str = "table",
    cache_dir: Optional[str] = None,
    server: Optional[str] = None,
) -> str:
    """Run a design-space search and render the annotated result set.

    The evaluated candidates (with ``pareto``/``knee`` marker columns) are
    rendered through the same ``--format`` writers as ``sweep``/``export``;
    the table format appends the front and the knee-point recommendation.
    With ``--server`` the search runs on the daemon and the front/knee are
    reconstructed from the marker columns of the returned result set.
    """
    param_axes = parse_parameter_axes(param_specs)
    if server is not None:
        response = _remote_evaluate(
            server, "optimize",
            objectives=objectives, strategy=strategy, budget=budget, seed=seed,
            pdns=pdns, params=dict(param_axes) if param_axes else None,
            tdps=tdps, scenarios=scenarios,
        )
        if response is not None:
            results = response.resultset
            front = results.filter(pareto=True)
            knee = results.row(results.column("knee").index(True))
            return _render_optimize(
                results, front, knee, response.strategy or strategy, output_format
            )
    from repro.optimize.objectives import EvaluationSettings
    from repro.optimize.runner import run_optimization

    space = build_optimize_space(pdns, param_axes)
    settings_kwargs = {}
    if tdps:
        settings_kwargs["tdps_w"] = tuple(tdps)
    if scenarios:
        settings_kwargs["scenarios"] = tuple(scenarios)
    settings = EvaluationSettings(**settings_kwargs) if settings_kwargs else None
    outcome = run_optimization(
        space,
        objectives=objectives,
        strategy=strategy,
        budget=budget,
        seed=seed,
        settings=settings,
        cache_dir=cache_dir,
    )
    return _render_optimize(
        outcome.results, outcome.front, outcome.knee, outcome.strategy, output_format
    )


def export_dataset(dataset: str) -> ResultSet:
    """Regenerate one exportable figure dataset as a :class:`ResultSet`."""
    from repro.experiments import (
        fig2_performance_model,
        fig3_vr_efficiency,
        fig4_validation,
    )

    if dataset == "fig2a":
        return fig2_performance_model.frequency_sensitivity_resultset()
    if dataset == "fig2b":
        return fig2_performance_model.budget_breakdown_resultset()
    if dataset == "fig3":
        return fig3_vr_efficiency.vr_efficiency_resultset()
    if dataset == "fig4-grid":
        return fig4_validation.etee_grid_resultset()
    if dataset == "fig4-power-states":
        return fig4_validation.power_state_grid_resultset()
    raise ValueError(f"unknown dataset {dataset!r}; choose from: {', '.join(EXPORT_DATASETS)}")


def run_export(dataset: str, output_format: str = "json") -> str:
    return _render(export_dataset(dataset), output_format)


def run_cache_command(
    action: str,
    cache_dir: str,
    older_than_s: Optional[float] = None,
    as_json: bool = False,
) -> str:
    """Inspect (``stats``) or reclaim (``prune``) a cache directory."""
    from repro.cache import cache_stats_payload, prune_cache_dir

    if action == "stats" and older_than_s is not None:
        # Accepting-and-ignoring the flag would let a user misread the full
        # footprint as an age-filtered one before pruning on it.
        raise ConfigurationError("--older-than only applies to `cache prune`")
    if action == "prune":
        removed = prune_cache_dir(cache_dir, older_than_s)
        if as_json:
            return json.dumps(
                {"cache_dir": cache_dir, "removed_entries": removed}, indent=2
            )
        return f"pruned {removed} entries from {cache_dir}"
    # The same schema helper feeds the daemon's GET /v1/stats "disk" section,
    # so the two observability surfaces cannot drift.
    payload = cache_stats_payload(cache_dir)
    if as_json:
        return json.dumps(payload, indent=2)
    rows = [
        [namespace, entry["entries"], entry["size_bytes"]]
        for namespace, entry in payload["namespaces"].items()
    ]
    if not rows:
        return f"no cache entries under {cache_dir}"
    return format_table(
        ["namespace", "entries", "bytes"], rows, title=f"Disk cache {cache_dir}"
    )


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {output}")
    else:
        print(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        # Model/configuration errors (unknown PDN, bad study axis, ...) are
        # user input errors, not crashes; keep stdout clean for --json/--format.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The downstream pipe (e.g. `repro export ... | head`) closed early;
        # close stdout quietly so the interpreter does not traceback on flush.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as error:
        print(f"error: cannot write output: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command, wrapped in tracing when ``--trace`` was given.

    The tracer is installed before any engine work starts and uninstalled
    in a ``finally``, so the Chrome-trace file is written (with the final
    metrics counter samples) even when the command fails or the serve
    daemon is interrupted.
    """
    entered_s = time.perf_counter()
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _run_command(args)
    from repro import IMPORT_STARTED_S
    from repro.obs import METRICS, install_tracer, uninstall_tracer
    from repro.obs import write_chrome_trace

    # Start-up on the timeline: from the first line of ``repro/__init__``
    # (imports, argument parsing) to here.
    install_tracer().complete(
        "setup.import", IMPORT_STARTED_S, entered_s, category="setup"
    )
    try:
        return _run_command(args)
    finally:
        write_chrome_trace(trace_path, uninstall_tracer(), METRICS)
        print(f"wrote trace to {trace_path}", file=sys.stderr)


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch one parsed command to its implementation."""
    if args.command == "figures":
        print(run_figures(args.quick, cache_dir=args.cache_dir))
        return 0
    if args.command == "serve":
        from repro.serve.server import DEFAULT_PORT, EvaluationServer

        server = EvaluationServer(
            host=args.host,
            port=args.port if args.port is not None else DEFAULT_PORT,
            cache_dir=args.cache_dir,
            timeout_s=args.timeout,
            max_timeout_s=args.max_timeout,
            max_units=args.max_units,
            batch_window_s=args.batch_window,
        )
        return server.run()
    if args.command == "cache":
        print(
            run_cache_command(
                args.action, args.cache_dir, args.older_than, as_json=args.json
            )
        )
        return 0
    if args.command == "export":
        _emit(run_export(args.dataset, args.format), args.output)
        return 0
    if args.command == "optimize":
        _emit(
            run_optimize(
                pdns=args.pdns,
                param_specs=args.param,
                objectives=args.objectives,
                strategy=args.strategy,
                budget=args.budget,
                seed=args.seed,
                tdps=args.tdps,
                scenarios=args.scenario,
                output_format=args.format,
                cache_dir=args.cache_dir,
                server=args.server,
            ),
            args.output,
        )
        return 0
    if args.command == "simulate":
        _emit(
            run_simulate(
                scenarios=args.scenario,
                tdps=args.tdps,
                seed=args.seed,
                pdns=args.pdns,
                output_format=args.format,
                cache_dir=args.cache_dir,
                server=args.server,
            ),
            args.output,
        )
        return 0
    from repro.analysis.pdnspot import PdnSpot

    spot = PdnSpot()
    if args.command == "etee":
        print(run_etee(spot, args.tdp, args.ar, args.workload, as_json=args.json))
    elif args.command == "performance":
        print(run_performance(spot, args.tdp, args.suite, as_json=args.json))
    elif args.command == "battery-life":
        print(run_battery_life(spot, as_json=args.json))
    elif args.command == "cost":
        print(run_cost(spot, args.tdp, as_json=args.json))
    elif args.command == "predict":
        print(run_predict(spot, args.tdp, args.ar, args.workload, as_json=args.json))
    elif args.command == "sweep":
        _emit(
            run_sweep(
                spot,
                args.tdps,
                ars=args.ars,
                workloads=args.workloads,
                power_states=args.power_states,
                pdns=args.pdns,
                output_format=args.format,
                server=args.server,
            ),
            args.output,
        )
    return 0
