"""Run one onedatom CLI command with its layers traced.

    python -X importtime bench/trace_cli.py SPANS.npz OP_ID SUBCOMMAND [OPTIONS]

Installs the span wrappers of `tracer` before ``onedatom.cli.main`` runs,
and writes the spans to SPANS.npz when the command ends.  The exit code is
the command's.
"""

import sys

import tracer as tracing

import onedatom.cli


def main():
    spans_path, op_id, *argv = sys.argv[1:]
    t = tracing.Tracer()
    t.install()
    t.begin_op(int(op_id))
    sys.argv = ["onedatom", *argv]
    code = 0
    try:
        onedatom.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        t.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
