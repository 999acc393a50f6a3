#!/usr/bin/env bash
# Byte comparison of two source trees' outputs.
#
#     bash .github/readme-bytes.sh BASE HEAD WORK
#
# BASE and HEAD are source trees (each with src/onedatom); WORK is a new or
# empty directory for the outputs.  Each tree runs, with PYTHONPATH set to
# its own src:
#   * the BASE README's `onedatom ` lines, as `python -m onedatom.cli`;
#   * HEAD's dense_sweeps benchmark operations, seeds 1-3, in process
#     through onedatom.cli.run;
#   * HEAD's ode_oracle operations, seeds 1-3, through the API as
#     bench/run.py runs them: each trajectory's CSV and each settled
#     state's repr.
# Every CSV and settled.txt must have the same bytes under both trees, and
# both trees must write the same files.  A change may add entries to a
# manifest, so each manifest is loaded as JSON on both trees instead: every
# entry under `results` and `diagnostics` of the base's, at any depth, must
# be equal at the head, and entries the head adds pass.  HEAD alone also
# runs the same README lines in one interpreter through onedatom.cli.run,
# each after a usage error of its subcommand, so that each call reuses a
# parser built and used before; each of its CSV and manifest files must
# have the bytes of HEAD's per-process run.  Needs python with numpy;
# exits 1 naming each difference.
set -eu

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE HEAD WORK" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
work=$(cd "$3" && pwd)

grep '^onedatom ' "$base/README.md" \
  | sed 's/^onedatom /python -m onedatom.cli /' > "$work/readme.sh"

for tree in base head; do
  src="$head/src"
  if [ "$tree" = base ]; then src="$base/src"; fi
  mkdir "$work/out-$tree"
  (cd "$work/out-$tree" && PYTHONPATH="$src" sh -e "$work/readme.sh")
done

mkdir "$work/reused-head"
(cd "$work/reused-head" && PYTHONPATH="$head/src" python -c '
import contextlib, io, shlex, sys
import onedatom.cli
with open(sys.argv[1], encoding="utf-8") as lines:
    for line in lines:
        argv = shlex.split(line)[3:]        # after "python -m onedatom.cli"
        with contextlib.redirect_stderr(io.StringIO()):
            assert onedatom.cli.run([argv[0], "--bogus", "1"]) == 2, argv
        assert onedatom.cli.run(argv) == 0, argv
' "$work/readme.sh")

for tree in base head; do
  src="$head/src"
  if [ "$tree" = base ]; then src="$base/src"; fi
  for seed in 1 2 3; do
    mkdir "$work/out-$tree/dense-$seed"
    (cd "$work/out-$tree/dense-$seed" \
      && PYTHONPATH="$src:$head/bench" python -c '
import sys, onedatom.cli, workloads
for op in workloads.dense_sweeps(int(sys.argv[1])):
    assert onedatom.cli.run(op["argv"]) == 0, op["argv"]
' "$seed")
  done
done

for tree in base head; do
  src="$head/src"
  if [ "$tree" = base ]; then src="$base/src"; fi
  for seed in 1 2 3; do
    mkdir "$work/out-$tree/ode-$seed"
    (cd "$work/out-$tree/ode-$seed" \
      && PYTHONPATH="$src:$head/bench" python -c '
import math, sys
import onedatom as od, workloads
with open("settled.txt", "w", encoding="utf-8") as settled:
    for op in workloads.ode_oracle(int(sys.argv[1])):
        if op["q"] == 1.0 and math.isinf(op["f"]):
            params = od.make_params(op["gamma"], op["kappa"],
                                    delta=op["delta"])
        else:
            params = od.params_from_ratios(op["gamma"], op["kappa"],
                                          op["q"], op["f"])
        drive = od.DriveField.from_power(op["dw"], op["p_in"])
        if op["kind"] == "settle":
            state = od.settle(drive, params, op["tol"]).state
            settled.write(repr((state.s, state.s_z)) + "\n")
            continue
        traj = od.integrate(drive, params, od.BlochState.ground(),
                            op["duration"], samples=op["samples"],
                            full_system=op["full_system"])
        with open(op["out"], "w", encoding="utf-8", newline="") as fh:
            traj.write_csv(fh)
' "$seed")
  done
done

cd "$work"
status=0
compared=0
for name in $(cd out-base && find . -name '*.csv' -o -name settled.txt | sort); do
  compared=$((compared + 1))
  if ! cmp -s "out-base/$name" "out-head/$name"; then
    echo "::error::${name#./} differs from the base commit's"
    status=1
  fi
done
if ! diff <(cd out-base && find . | sort) <(cd out-head && find . | sort); then
  echo "::error::the README commands, dense sweeps or ode_oracle operations write other files than at the base commit"
  status=1
fi
reused=0
for name in $(cd out-head && find . -maxdepth 1 -type f | sort); do
  reused=$((reused + 1))
  if ! cmp -s "out-head/$name" "reused-head/$name"; then
    echo "::error::${name#./} differs between the head's in-process run on reused parsers and its own process"
    status=1
  fi
done
if ! diff <(cd out-head && find . -maxdepth 1 -type f | sort) \
          <(cd reused-head && find . -type f | sort); then
  echo "::error::the README commands write other files in one process than one process each"
  status=1
fi
manifests=$(cd out-base && find . -name '*.json' | wc -l)
if ! python - out-base out-head <<'EOF'
import json, pathlib, sys

base, head = (pathlib.Path(p) for p in sys.argv[1:])


def differences(b, h, where):
    """Where the head's value h lacks or changes the base's value b."""
    if isinstance(b, dict) and isinstance(h, dict):
        for key, value in b.items():
            if key in h:
                yield from differences(value, h[key], f"{where}.{key}")
            else:
                yield f"{where}.{key}"
    elif b != h:
        yield where


status = 0
for path in sorted(base.rglob("*.json")):
    name = path.relative_to(base)
    if not (head / name).exists():
        continue        # the listing above names it
    b, h = (json.loads(p.read_text(encoding="utf-8"))
            for p in (path, head / name))
    for section in ("results", "diagnostics"):
        for where in differences(b.get(section, {}), h.get(section, {}),
                                 section):
            print(f"::error::{name}: {where} differs from the base commit's")
            status = 1
sys.exit(status)
EOF
then
  status=1
fi
if [ $status -eq 0 ]; then
  echo "pass, $compared files and $manifests manifests compared, $reused files on reused parsers"
else
  echo "fail, $compared files and $manifests manifests compared, $reused files on reused parsers"
fi
exit $status
