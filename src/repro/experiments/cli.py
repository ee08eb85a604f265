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
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple, Union

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
from .an14_faults import run_an14, run_an15, run_an16
from .harness import Table
from .scenarios import ScenarioResult, run_fig1, run_fig3, run_fig4
from ..errors import ConfigError
from ..verify import fuzz as fuzz_mod
from . import bench as bench_mod
from . import live as live_mod
from . import observe as observe_mod


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
    "an14": Experiment(
        "fault soak, reliable link on vs off (assumption-1 exploration)",
        run_an14),
    "an15": Experiment(
        "reliable transport under 5/10/20 % wired loss (exploration)",
        run_an15),
    "an16": Experiment(
        "last-mile recovery arms under MH crashes (exploration)", run_an16),
}


def regenerate(ids: List[str], false_claims: List[str]
               ) -> Iterator[Tuple[str, str, float]]:
    """Run each experiment in turn, yielding (id, text, wall seconds).

    The statement of every check that does not hold is appended to
    *false_claims* as ``"<id>: <statement>"``.
    """
    for exp_id in ids:
        started = time.perf_counter()
        result = EXPERIMENTS[exp_id].run()
        text = result.render()
        elapsed = time.perf_counter() - started
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
    live = sub.add_parser(
        "live", help="run RDP over real loopback UDP sockets and "
                     "cross-validate against the simulator "
                     "(see docs/LIVE.md)")
    live.add_argument("--preset", choices=sorted(live_mod.PRESETS),
                      default="smoke",
                      help="cluster scenario (default smoke; the CI gate)")
    live.add_argument("--out", type=pathlib.Path,
                      default=pathlib.Path("LIVE_crossval.json"),
                      help="cross-validation report file (default: "
                           "LIVE_crossval.json)")
    live.add_argument("--quiet", action="store_true",
                      help="suppress the human-readable summary")
    analyze = sub.add_parser(
        "analyze", help="run the RNG stream-ownership pass (SHD004) over "
                        "the source tree (see docs/STATIC_ANALYSIS.md)")
    analyze.add_argument("--root", type=pathlib.Path, default=None,
                         help="tree to scan (default: the installed "
                              "repro package)")
    analyze.add_argument("--format", choices=("text", "sarif"),
                         default="text",
                         help="output format (sarif is stably ordered for "
                              "CI artifacts)")
    analyze.add_argument("--out", type=pathlib.Path, default=None,
                         help="also write the rendered report to this file")
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

    started = time.perf_counter()
    config = (fuzz_mod.FuzzConfig(fault_profile=True)
              if args.fault_profile else None)
    campaign = fuzz_mod.run_campaign(
        seeds=args.seeds, base_seed=args.base_seed, protocol=args.protocol,
        config=config, shrink=not args.no_shrink, out_dir=args.out,
        progress=lambda line: print(f"  FAIL {line}"))
    elapsed = time.perf_counter() - started
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


def run_analyze(args: argparse.Namespace) -> int:
    """The ``analyze`` subcommand: exit 1 iff the pass finds anything."""
    from ..analysis.static import render_result, render_sarif, run_analysis

    root = args.root or pathlib.Path(__file__).resolve().parents[1]
    result = run_analysis(root)
    render = render_sarif if args.format == "sarif" else render_result
    rendered = render(result).rstrip("\n") + "\n"
    print(rendered, end="")
    if args.out is not None:
        args.out.write_text(rendered, encoding="utf-8")
    return 1 if result.findings else 0


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp_id, experiment in EXPERIMENTS.items():
            print(f"{exp_id:<6} {experiment.description}")
        return 0
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "fuzz": run_fuzz, "observe": run_observe,
        "live": live_mod.run_live, "analyze": run_analyze}
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
