"""Command-line scenario runner.

Subcommands:

* ``run``      -- full in-process session (both parties in one thread),
                  writes session report, prediction, and deviation report;
* ``party``    -- one side of a networked session over TCP;
* ``predict``  -- analytic metrics for a scenario, no simulation.

Exit codes follow the failure taxonomy of :mod:`fsbb84.protocol.session`:
0 = the party ended in a report, an outcome even when it aborts (QBER
above threshold, handshake mismatch, ``peer-abort``, ``protocol-violation``);
1 = infrastructure failure (transport death, timeout or deadlock, clock
recovery, no sifted bit, I/O); 2 = configuration error.

The default output directory comes from ``FSBB84_OUT_DIR`` (falling back
to the working directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import analysis
from .errors import ConfigError, InconclusiveSessionError, SessionFailedError, SyncFailureError
from .scenario import BUNDLED_NAMES, ROLE_ALICE, ROLE_BOB, load_scenario

ENV_OUT_DIR = "FSBB84_OUT_DIR"


def _out_dir(arg) -> Path:
    d = Path(arg or os.environ.get(ENV_OUT_DIR, "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_report_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_report_csv(doc: dict, path: Path) -> None:
    """Flat key,value CSV; values are JSON-encoded so parsing is lossless."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["key", "value_json"])
        for key in sorted(doc):
            w.writerow([key, json.dumps(doc[key], sort_keys=True)])


def _write(doc: dict, out: Path, stem: str, fmt: str) -> None:
    if fmt == "json":
        write_report_json(doc, out / f"{stem}.json")
    else:
        write_report_csv(doc, out / f"{stem}.csv")


def _cmd_run(args) -> int:
    from . import receiver, runner, sync  # not on predict's path: they load numpy
    scenario = load_scenario(args.scenario, args.seed)
    if args.duration is not None:
        if scenario.protocol.n_pulses is not None:
            raise ConfigError("fixes the pulse count, so --duration would be ignored",
                              "protocol.n_pulses")
        scenario = scenario.override({"duration_s": args.duration})
    out = _out_dir(args.out)

    bob_report, alice_report, quantum = runner.run_in_process(scenario)
    predicted = analysis.predict(scenario)
    deviation = analysis.compare(predicted, bob_report)

    _write(bob_report.to_dict(), out, "session_report", args.format)
    _write(alice_report.to_dict(), out, "session_report_alice", args.format)
    _write(predicted.to_dict(), out, "predicted_metrics", args.format)
    _write(deviation.to_dict(), out, "deviation_report", args.format)

    if args.dump_tags:
        receiver.dump_tags(quantum.tags, args.dump_tags)
    if args.dump_histogram:
        clock, period = quantum.clock, scenario.source.period_ps
        phase_ps = sync.source_time_ps(quantum.tags.time_ps, clock.offset_ps, clock.rate)
        phase_ps += period / 2
        sync.export_histogram_csv(sync.fold_histogram(phase_ps, period, 256), period,
                                  args.dump_histogram)

    q = bob_report.qber
    status = "ABORTED" if bob_report.abort else "ok"
    print(f"{scenario.name}: {status} qber={q.qber:.4f} "
          f"sifted={bob_report.sifted_key_length} bits "
          f"({bob_report.sifted_key_rate_bps:.1f} b/s) "
          f"prediction={'pass' if deviation.passed else 'FAIL'}")
    return 0


def _cmd_party(args) -> int:
    from . import receiver
    from .protocol.session import run_session
    from .protocol.transport import connect, listen_accept
    scenario = load_scenario(args.scenario, args.seed)
    out = _out_dir(args.out)
    role = args.role

    replay = receiver.load_tags(args.replay_tags) if args.replay_tags else None

    if args.listen:
        host, port = _host_port(args.listen)
        transport = listen_accept(host, port, timeout_s=args.timeout)
    else:
        host, port = _host_port(args.connect)
        transport = connect(host, port, timeout_s=args.timeout)

    try:
        report = run_session(role, transport, scenario, replay_tags=replay)
    finally:
        transport.close()

    _write(report.to_dict(), out, f"session_report_{role}", args.format)
    status = "ABORTED" if report.abort else "ok"
    print(f"{scenario.name} [{role}]: {status} "
          f"reason={report.abort_reason or '-'} qber={report.qber.qber:.4f} "
          f"sifted={report.sifted_key_length}")
    return 0


def _cmd_predict(args) -> int:
    scenario = load_scenario(args.scenario, args.seed)
    predicted = analysis.predict(scenario)
    if args.out:
        out = _out_dir(args.out)
        _write(predicted.to_dict(), out, "predicted_metrics", args.format)
    print(json.dumps(predicted.to_dict(), sort_keys=True, indent=2))
    return 0


def _host_port(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ConfigError("expected HOST:PORT", "endpoint")
    return host or "127.0.0.1", int(port)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fsbb84",
                                description="Free-space daylight BB84 simulator and protocol stack")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--scenario", required=True,
                        help=f"scenario JSON path or bundled name ({', '.join(BUNDLED_NAMES)})")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed overriding the scenario's per-module seeds")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    run_p = sub.add_parser("run", help="in-process session (both parties)")
    common(run_p)
    run_p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR} or .)")
    run_p.add_argument("--duration", type=float, default=None,
                       help="override scenario duration_s (rejected if protocol.n_pulses is set)")
    run_p.add_argument("--dump-tags", default=None, help="write the binary time-tag stream here")
    run_p.add_argument("--dump-histogram", default=None,
                       help="write here the CSV histogram of tag times folded at the period "
                            "on the recovered clock, each slot centre in bin 128 of 256")
    run_p.set_defaults(func=_cmd_run)

    party_p = sub.add_parser("party", help="one networked party over TCP")
    common(party_p)
    party_p.add_argument("--role", choices=(ROLE_ALICE, ROLE_BOB), required=True)
    group = party_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--listen", metavar="HOST:PORT")
    group.add_argument("--connect", metavar="HOST:PORT")
    party_p.add_argument("--out", default=None)
    party_p.add_argument("--timeout", type=float, default=120.0,
                         help="transport wait in seconds")
    party_p.add_argument("--replay-tags", default=None,
                         help="(bob) replay a recorded tag stream instead of co-simulating")
    party_p.set_defaults(func=_cmd_party)

    pred_p = sub.add_parser("predict", help="analytic link-budget prediction")
    common(pred_p)
    pred_p.add_argument("--out", default=None)
    pred_p.set_defaults(func=_cmd_predict)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (SessionFailedError, InconclusiveSessionError, SyncFailureError) as e:
        print(f"session failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
