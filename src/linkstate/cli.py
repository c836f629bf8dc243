"""Command-line surface: inspect, diff, apply, replay, join, serve, simulate.

Every subcommand is a thin adapter over the library modules; the only logic
here is argument handling and rendering. Results go to stdout, diagnostics to
stderr. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from .errors import LinkstateError
from .history import HistoryLog
from .qkeys import KeyManager, join_columns, load_csv_column
from .statetree import (
    CLASS_NAME_KEY,
    OBJECT_NAME_KEY,
    SESSION_STATE_KEY,
    _canonical,
    _is_entry_list,
    apply_diff,
    decode,
    decode_diff,
    encode,
    encode_diff,
    diff,
)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# -- inspect rendering ---------------------------------------------------------------


def _render(node: Any, indent: str, out: list[str]) -> None:
    if isinstance(node, dict) and node:
        for key, value in node.items():
            if isinstance(value, (dict, list)) and value:
                out.append(f"{indent}{key}:")
                _render(value, indent + "  ", out)
            else:
                out.append(f"{indent}{key}: {encode(value)}")
    elif _is_entry_list(node):
        for entry in node:
            name = entry.get(OBJECT_NAME_KEY, "")
            cls = entry.get(CLASS_NAME_KEY, "")
            state = entry.get(SESSION_STATE_KEY)
            if not cls and state is None:
                out.append(f"{indent}- {name} (reference)")
                continue
            out.append(f"{indent}- {name}:{cls}")
            if state is not None:
                _render(state, indent + "    ", out)
    else:
        out.append(f"{indent}{encode(node)}")


def render_tree(node: Any) -> str:
    lines: list[str] = []
    _render(_canonical(node), "", lines)
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------------


def _cmd_inspect(args) -> int:
    node = decode(_read(args.file))
    if args.canonical:
        print(encode(node))
    else:
        print(render_tree(node))
    return 0


def _cmd_diff(args) -> int:
    a = decode(_read(args.a))
    b = decode(_read(args.b))
    print(encode_diff(diff(a, b)))
    return 0


def _cmd_apply(args) -> int:
    base = decode(_read(args.base))
    d = decode_diff(_read(args.diff))
    result = apply_diff(base, d, remove_missing=not args.keep_missing)
    print(encode(result))
    return 0


def _cmd_replay(args) -> int:
    log = HistoryLog.import_json(_read(args.log))
    failed = []
    if args.verify:
        failed = log.verify()
        for i in range(len(log.steps)):
            status = "FAIL" if i in failed else "ok"
            print(f"step {i}: {status}", file=sys.stderr)
    print(encode(log.state_at(args.to if args.to is not None else log.cursor)))
    if failed:
        print(f"error: {len(failed)} step(s) failed the inverse check", file=sys.stderr)
        return 1
    return 0


def _cmd_join(args) -> int:
    manager = KeyManager()
    columns = []
    for spec in args.csv:
        parts = spec.split(":")
        if len(parts) == 3:
            path, key_col, val_col = parts
            key_type = args.key_type
        elif len(parts) == 4:
            path, key_col, val_col, key_type = parts
        else:
            print(f"error: --csv expects file:key:value[:keytype], got {spec!r}", file=sys.stderr)
            return 2
        columns.append(load_csv_column(manager, path, key_col, val_col, key_type))
    table = join_columns(manager, columns)
    sys.stdout.write(table.to_csv())
    return 0


def _cmd_serve(args) -> int:
    from .sync.socket_transport import RelayServer

    server = RelayServer(args.host, args.port)
    print(f"relay listening on {server.address[0]}:{server.address[1]}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _read_script(spec: str) -> str:
    """A path to a script file, or the bare name of a bundled scenario."""
    if Path(spec).exists():
        return _read(spec)
    import importlib.resources

    bundled = importlib.resources.files("linkstate") / "scenarios" / f"{spec}.json"
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise FileNotFoundError(f"no such file or bundled scenario: {spec}")


def _cmd_simulate(args) -> int:
    text = _read_script(args.script)
    if args.realtime:
        from .sync.socket_transport import run_realtime

        report = run_realtime(text)
        print(encode_diff(report))
        return 0 if report["converged"] else 1
    from .sync import run_simulation

    result = run_simulation(text, seed=args.seed)
    if args.trace:
        for line in result.trace:
            print(line, file=sys.stderr)
    print(result.report_json())
    return 0 if result.report["converged"] else 1


# -- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkstate",
        description="Session-state trees: inspect, diff, replay, join, and sync them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="pretty-print a state file")
    p.add_argument("file")
    p.add_argument("--canonical", action="store_true", help="emit canonical JSON instead")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("diff", help="diff two state files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("apply", help="apply a diff file to a base state file")
    p.add_argument("base")
    p.add_argument("diff")
    p.add_argument(
        "--keep-missing",
        action="store_true",
        help="retain dynamic objects the diff does not mention",
    )
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("replay", help="replay an exported history log")
    p.add_argument("log")
    p.add_argument("--to", type=int, default=None, help="step index (default: the log's cursor)")
    p.add_argument("--verify", action="store_true", help="check every step's inverse property")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("join", help="align keyed CSV columns into one table")
    p.add_argument("--key-type", required=True)
    p.add_argument(
        "--csv",
        action="append",
        required=True,
        metavar="FILE:KEY:VALUE[:KEYTYPE]",
        help="input column; repeatable",
    )
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("serve", help="run a relay server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7611)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("simulate", help="run a scripted sync scenario")
    p.add_argument("script")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="dump the delivery trace to stderr")
    p.add_argument("--realtime", action="store_true", help="run over loopback sockets instead")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LinkstateError, ValueError, RecursionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
