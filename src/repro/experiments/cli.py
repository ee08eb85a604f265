"""Command-line experiment runner.

Regenerate any (or every) paper artifact from the shell::

    python -m repro.experiments list
    python -m repro.experiments run an3 an5
    python -m repro.experiments run all --out results/

Each experiment prints its table; ``--out DIR`` additionally writes one
``<id>.txt`` per experiment.  Every experiment states the paper's claims
as checks on its own output: ``run`` and ``report`` exit 1 and name each
claim that does not hold, after writing their output.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Callable, Dict, Iterator, List, NamedTuple, Set, Tuple, Union

from .an1_reliability import run_an1
from .an2_exactly_once import run_an2
from .an3_retransmission import run_an3
from .an4_overhead import run_an4
from .an5_load_balance import run_an5
from .an6_causal_ablation import run_an6
from .an7_handoff_cost import run_an7
from .an8_ack_priority import run_an8
from .an9_retention import run_an9
from .an10_latency import run_an10
from .an11_triangle import run_an11
from .an12_proxy_migration import run_an12
from .an13_mss_failures import run_an13
from .harness import Table
from .scenarios import ScenarioResult, run_fig1, run_fig3, run_fig4
from ..errors import ConfigError
from ..verify import fuzz as fuzz_mod
from . import bench as bench_mod
from . import chaos as chaos_mod
from . import live as live_mod
from . import observe as observe_mod
from ._timing import wall_clock


class Experiment(NamedTuple):
    """One registry entry: what the experiment shows, and how to run it.

    *run* returns a :class:`~.harness.Table` or a
    :class:`~.scenarios.ScenarioResult`: both have ``render()`` and the
    ``checks`` that state the paper's claims over what was rendered.
    """

    description: str
    run: Callable[[], Union[Table, ScenarioResult]]


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        "Figure 1 — topology scenario: roaming query + multicast", run_fig1),
    "fig3": Experiment("Figure 3 — single-request message sequence", run_fig3),
    "fig4": Experiment("Figure 4 — multiple-request flag machinery", run_fig4),
    "an1": Experiment(
        "delivery reliability: rdp vs itcp vs best-effort", run_an1),
    "an2": Experiment("exactly-once and the ack-then-migrate race", run_an2),
    "an3": Experiment(
        "retransmission threshold (t_wired + t_wireless)", run_an3),
    "an4": Experiment("message overhead bound (Section 5)", run_an4),
    "an5": Experiment("load balancing: placement policies", run_an5),
    "an6": Experiment("causal-order ablation", run_an6),
    "an7": Experiment("hand-off state-transfer cost vs I-TCP style", run_an7),
    "an8": Experiment("ack-priority ablation (Section 3.1)", run_an8),
    "an9": Experiment("footnote-3 result retention", run_an9),
    "an10": Experiment(
        "latency decomposition vs mobility rate (extension)", run_an10),
    "an11": Experiment(
        "triangle-routing latency vs distance from home (extension)", run_an11),
    "an12": Experiment(
        "proxy migration for long-lived subscriptions (extension)", run_an12),
    "an13": Experiment(
        "delivery under MSS crash/restart (assumption-2 exploration)", run_an13),
}


def regenerate(ids: List[str], false_claims: List[str]
               ) -> Iterator[Tuple[str, str, float]]:
    """Run each experiment in turn, yielding (id, text, wall seconds).

    The statement of every check that does not hold is appended to
    *false_claims* as ``"<id>: <statement>"``.
    """
    for exp_id in ids:
        started = wall_clock()
        result = EXPERIMENTS[exp_id].run()
        text = result.render()
        elapsed = wall_clock() - started
        false_claims.extend(f"{exp_id}: {check.statement}"
                            for check in result.checks if not check.holds)
        yield exp_id, text, elapsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and analytical claims.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("ids", nargs="+",
                     help="experiment ids (see 'list'), or 'all'")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="directory to write <id>.txt result files into")
    report = sub.add_parser(
        "report", help="run experiments and write one Markdown report")
    report.add_argument("ids", nargs="*", default=[],
                        help="subset of experiment ids (default: all); a "
                             "subset replaces only its own sections of an "
                             "existing report")
    report.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("REPORT.md"),
                        help="report file (default: REPORT.md)")
    fuzz = sub.add_parser(
        "fuzz", help="fuzz randomized fault schedules with the invariant "
                     "oracle attached (see docs/TESTING.md)")
    fuzz.add_argument("--seeds", type=int, default=50,
                      help="number of consecutive seeds to run (default 50)")
    fuzz.add_argument("--base-seed", type=int, default=0,
                      help="first seed (default 0)")
    fuzz.add_argument("--protocol", choices=sorted(fuzz_mod.PROTOCOLS),
                      default="rdp",
                      help="MSS variant to fuzz (default rdp)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip delta-debugging failing schedules")
    fuzz.add_argument("--out", type=pathlib.Path, default=None,
                      help="directory to write repro seed files into")
    fuzz.add_argument("--replay", type=pathlib.Path, default=None,
                      help="replay one repro seed file instead of fuzzing")
    fuzz.add_argument("--fault-profile", action="store_true",
                      help="fuzz over the wired fault profile too: "
                           "loss/duplication plus crash/partition/wired_loss "
                           "ops (see docs/FAULTS.md)")
    bench = sub.add_parser(
        "bench", help="run the pinned macro-benchmark and record "
                      "throughput (see EXPERIMENTS.md)")
    bench.add_argument("--preset", choices=sorted(bench_mod.PRESETS),
                       default="macro",
                       help="scenario size (default macro; CI uses smoke)")
    bench.add_argument("--out", type=pathlib.Path, default=None,
                       help="result file (default: BENCH_macro.json at the "
                            "repo root)")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")
    bench.add_argument("--obs", action="store_true",
                       help="add the observability hub's deterministic "
                            "metrics digest to the result JSON")
    observe = sub.add_parser(
        "observe", help="run a bench scenario with delivery-span "
                        "reconstruction and metrics export on "
                        "(see docs/OBSERVABILITY.md)")
    observe.add_argument("--preset", choices=sorted(bench_mod.PRESETS),
                         default="smoke",
                         help="bench scenario size (default smoke)")
    observe.add_argument("--export", choices=("prom", "json"), default=None,
                         help="additionally export the metrics hub as "
                              "Prometheus text or canonical JSON")
    observe.add_argument("--out", type=pathlib.Path, default=None,
                         help="export file (default: OBS_metrics.prom / "
                              "OBS_metrics.json in the working directory)")
    observe.add_argument("--quiet", action="store_true",
                         help="suppress the human-readable report")
    chaos = sub.add_parser(
        "chaos", help="run the pinned fault-injection soak with the "
                      "invariant oracle attached (see docs/FAULTS.md)")
    chaos.add_argument("--preset", choices=sorted(chaos_mod.PRESETS),
                       default="soak",
                       help="scenario size (default soak; CI uses smoke)")
    chaos.add_argument("--out", type=pathlib.Path, default=None,
                       help="result file (default: CHAOS_report.json at the "
                            "repo root)")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")
    chaos.add_argument("--unreliable", action="store_true",
                       help="disable the reliable link: same faults, no "
                            "repair (demonstrates the violations it prevents)")
    chaos.add_argument("--transport", choices=("sr", "legacy"), default="sr",
                       help="reliable transport to run the scenario under: "
                            "selective-repeat (default) or the stop-and-wait "
                            "baseline (see docs/TRANSPORT.md)")
    live = sub.add_parser(
        "live", help="run RDP over real loopback UDP sockets and "
                     "cross-validate against the simulator "
                     "(see docs/LIVE.md)")
    live.add_argument("--preset", choices=sorted(live_mod.PRESETS),
                      default="smoke",
                      help="cluster scenario (default smoke; the CI gate)")
    live.add_argument("--out", type=pathlib.Path, default=None,
                      help="cross-validation report file (default: "
                           "LIVE_crossval.json at the repo root)")
    live.add_argument("--quiet", action="store_true",
                      help="suppress the human-readable summary")
    analyze = sub.add_parser(
        "analyze", help="run the AST-based protocol-conformance and "
                        "determinism passes (see docs/STATIC_ANALYSIS.md)")
    analyze.add_argument("--root", type=pathlib.Path, default=None,
                         help="tree to scan (default: the installed "
                              "repro package)")
    analyze.add_argument("--baseline", type=pathlib.Path, default=None,
                         help="baseline file (default: ANALYSIS_BASELINE.json "
                              "next to the scanned tree's repo root)")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="report every finding, ignore the baseline")
    analyze.add_argument("--update-baseline", action="store_true",
                         help="re-record the baseline from this run's "
                              "findings and exit 0")
    analyze.add_argument("--select", "--rules", dest="select", default=None,
                         help="comma-separated rule ids or id prefixes to "
                              "run, e.g. SHD or SHD001,DET (default: all)")
    analyze.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text",
                         help="output format (json/sarif are stably "
                              "ordered for CI artifacts)")
    analyze.add_argument("--out", type=pathlib.Path, default=None,
                         help="also write the rendered report to this file")
    analyze.add_argument("--list-rules", action="store_true",
                         help="list rule ids and exit")
    return parser


_SECTION_RE = re.compile(r"^## (\S+) — ", re.MULTILINE)


def write_report(ids: List[str], out: pathlib.Path) -> List[str]:
    """Run the given experiments and write a Markdown report to *out*.

    A full run writes the whole file.  A subset of the ids, when *out*
    exists, is spliced into it: a regenerated section replaces the
    section of the same id where it stands (an id the file lacks is
    appended) and every other section is kept as it is.  Returns the
    claims that do not hold (see :func:`regenerate`).
    """
    sections: Dict[str, str] = {}
    if out.exists() and set(ids) != set(EXPERIMENTS):
        kept = out.read_text()
        marks = list(_SECTION_RE.finditer(kept))
        ends = [mark.start() for mark in marks[1:]] + [len(kept)]
        for mark, end in zip(marks, ends):
            section = kept[mark.start():end].rstrip("\n") + "\n"
            sections[mark.group(1)] = section
    false_claims: List[str] = []
    for exp_id, text, elapsed in regenerate(ids, false_claims):
        sections[exp_id] = (
            f"## {exp_id} — {EXPERIMENTS[exp_id].description}\n\n"
            f"```\n{text}\n```\n\n"
            f"_regenerated in {elapsed:.1f}s_\n")
    out.write_text(
        "# RDP reproduction report\n\n"
        "Regenerated artifacts of *RDP: A Result Delivery Protocol for "
        "Mobile Computing* (ICDCS 2000).  See EXPERIMENTS.md for the "
        "paper-claim-by-claim comparison.\n\n" + "\n".join(sections.values()))
    return false_claims


def run_fuzz(args: argparse.Namespace) -> int:
    """The ``fuzz`` subcommand: campaign or single-file replay."""
    if args.replay is not None:
        try:
            case, protocol = fuzz_mod.load_case(args.replay)
        except (OSError, ConfigError) as exc:
            print(f"cannot read repro file: {exc}")
            return 2
        result = fuzz_mod.run_case(case, protocol)
        print(f"replayed {args.replay} (seed {case.seed}, {protocol}, "
              f"{len(case.ops)} ops): "
              f"{'no violations' if result.ok else ''}")
        for violation in result.violations:
            print(violation.describe())
        return 0 if result.ok else 1

    started = wall_clock()
    config = (fuzz_mod.FuzzConfig(fault_profile=True)
              if args.fault_profile else None)
    campaign = fuzz_mod.run_campaign(
        seeds=args.seeds, base_seed=args.base_seed, protocol=args.protocol,
        config=config, shrink=not args.no_shrink, out_dir=args.out,
        progress=lambda line: print(f"  FAIL {line}"))
    elapsed = wall_clock() - started
    print(f"fuzzed {campaign.seeds} seeds ({args.protocol}, base "
          f"{campaign.base_seed}) in {elapsed:.1f}s: "
          f"{campaign.requests_delivered}/{campaign.requests_issued} "
          f"requests delivered, {len(campaign.failures)} failing seeds")
    for failure in campaign.failures:
        ops = len(failure.shrunk.ops)
        where = f" -> {failure.repro_path}" if failure.repro_path else ""
        print(f"  seed {failure.seed}: {', '.join(failure.invariants)} "
              f"(shrunk to {ops} ops){where}")
        for violation in failure.violations[:3]:
            print(f"    {violation}")
    return 0 if campaign.ok else 1


def run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` subcommand: pinned macro scenario -> JSON + summary."""
    preset = bench_mod.PRESETS[args.preset]
    result = bench_mod.run_bench(preset, obs=args.obs)
    out = args.out if args.out is not None else bench_mod.default_out_path()
    bench_mod.write_result(result, out)
    if not args.quiet:
        print(bench_mod.render(result))
    print(f"wrote {out}")
    return 0


def run_observe(args: argparse.Namespace) -> int:
    """The ``observe`` subcommand: spans + metrics on one bench scenario."""
    from ..obs.export import json_text, prometheus_text

    preset = bench_mod.PRESETS[args.preset]
    result = observe_mod.run_observe(preset)
    if not args.quiet:
        print(observe_mod.render(result))
    if args.export is not None:
        if args.export == "prom":
            out = args.out or pathlib.Path("OBS_metrics.prom")
            out.write_text(prometheus_text(result.hub))
        else:
            out = args.out or pathlib.Path("OBS_metrics.json")
            out.write_text(json_text(result.hub,
                                     sim_time=result.world.sim.now))
        print(f"wrote {out}")
    # Exit nonzero when span reconstruction failed to account for every
    # issued request — the subsystem's own acceptance gate.
    return 0 if result.accounted() else 1


def run_chaos(args: argparse.Namespace) -> int:
    """The ``chaos`` subcommand: pinned fault soak -> JSON + summary."""
    preset = chaos_mod.PRESETS[args.preset]
    result = chaos_mod.run_chaos(preset, reliable=not args.unreliable,
                                 transport=args.transport)
    out = args.out if args.out is not None else chaos_mod.default_out_path()
    chaos_mod.write_result(result, out)
    if not args.quiet:
        print(chaos_mod.render(result))
    print(f"wrote {out}")
    violations = result["determinism"]["violations"]
    # With the reliable link on, any violation is a protocol bug; without
    # it violations are the expected demonstration, not a failure.
    return 1 if violations and not args.unreliable else 0


def _select_rules(spec: str) -> Set[str]:
    """Expand comma-separated ids/prefixes against the rule registry."""
    from ..analysis.static import RULES

    selected = set()
    for token in (t.strip() for t in spec.split(",")):
        if not token:
            continue
        if token in RULES:
            selected.add(token)
            continue
        expanded = {rule_id for rule_id in RULES
                    if rule_id.startswith(token)}
        if not expanded:
            raise ConfigError(f"--select: unknown rule or prefix "
                              f"{token!r} (see --list-rules)")
        selected.update(expanded)
    return selected


def run_analyze(args: argparse.Namespace) -> int:
    """The ``analyze`` subcommand: static passes plus baseline ratchet."""
    from ..analysis.static import (
        compare, load_baseline, load_justifications, render_json,
        render_result, render_sarif, rule_ids, run_analysis, save_baseline,
        unjustified)

    if args.list_rules:
        for rule_id, doc in rule_ids():
            print(f"{rule_id:<8} {doc}")
        return 0
    selected = None
    if args.select:
        try:
            selected = _select_rules(args.select)
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    root = args.root or pathlib.Path(__file__).resolve().parents[1]
    result = run_analysis(root, selected)

    baseline_path = args.baseline
    if baseline_path is None:
        # src/repro -> repo root; fall back to the scan root itself when
        # the tree is not laid out as <repo>/src/repro.
        candidates = [root.parent.parent, root]
        baseline_path = next(
            (c / "ANALYSIS_BASELINE.json" for c in candidates
             if (c / "ANALYSIS_BASELINE.json").exists()),
            candidates[0] / "ANALYSIS_BASELINE.json")

    if args.update_baseline:
        save_baseline(baseline_path, result.findings)
        print(f"recorded {len(result.findings)} finding(s) into "
              f"{baseline_path}")
        return 0

    comparison = None
    if not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
            comparison = compare(result.findings, baseline)
        except ValueError as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 2
        for fp in unjustified(baseline, load_justifications(baseline_path)):
            print(f"analyze: baseline entry lacks a justification: {fp}",
                  file=sys.stderr)

    renderers = {"text": render_result, "json": render_json,
                 "sarif": render_sarif}
    rendered = renderers[args.format](result, comparison)
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    if args.out is not None:
        args.out.write_text(
            rendered if rendered.endswith("\n") else rendered + "\n",
            encoding="utf-8")
    failed = comparison.new if comparison is not None else result.findings
    return 1 if failed else 0


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id, experiment in EXPERIMENTS.items():
            print(f"{exp_id:<6} {experiment.description}")
        return 0
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "fuzz": run_fuzz, "bench": run_bench, "observe": run_observe,
        "chaos": run_chaos, "live": live_mod.run_live, "analyze": run_analyze}
    if args.command in commands:
        return commands[args.command](args)

    ids = list(EXPERIMENTS) if not args.ids or "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.command == "report":
        false_claims = write_report(ids, args.out)
        print(f"wrote {args.out} ({len(ids)} experiments)")
    else:
        false_claims = []
        for exp_id, text, elapsed in regenerate(ids, false_claims):
            print(text)
            print(f"[{exp_id} regenerated in {elapsed:.1f}s]")
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{exp_id}.txt").write_text(text + "\n")
    for claim in false_claims:
        print(f"claim does not hold: {claim}", file=sys.stderr)
    return 1 if false_claims else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
