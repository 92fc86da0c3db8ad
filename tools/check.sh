#!/bin/sh
# The repository's checks, in order, stopping at the first failure: the
# tier-1 suite, the same suite under `python3 -X dev -W error`, the slow
# stretch checks, the benchmark's own tests and every demo.  It ends by
# printing the line totals of the library and of the tests.  Run it from
# anywhere, with no arguments:
#
#     tools/check.sh
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1"
python3 -m pytest -q --continue-on-collection-errors
echo "== tier-1 under -X dev -W error"
python3 -X dev -W error -m pytest -q --continue-on-collection-errors
echo "== slow"
python3 -m pytest -q -m slow
echo "== perfbench"
python3 -m pytest -q perfbench
for demo in demos/*.py; do
    echo "== $demo"
    python3 "$demo" > /dev/null
done
echo "== all checks passed"
echo "== lines: src/fusedhecke $(cat src/fusedhecke/*.py | wc -l), tests $(cat tests/*.py | wc -l)"
