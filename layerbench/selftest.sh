#!/bin/sh
# Feeds the benchmark's output checks a corrupted coloring and a dropped
# edge; each run must fail with exit code 1 (a build failure, 101, does not
# count as a pass). Run from anywhere: `sh layerbench/selftest.sh`.
set -u
cd "$(dirname "$0")/.." || exit 2
for fault in corrupt-color drop-edge; do
    cargo run --quiet --release --offline --manifest-path layerbench/Cargo.toml -- \
        --workload fleet-1000 --seed 1 --seconds 2 --trace 0 --inject "$fault" >/dev/null 2>&1
    code=$?
    if [ "$code" -ne 1 ]; then
        echo "self-test: --inject $fault exited with $code, expected 1" >&2
        exit 1
    fi
    echo "self-test: --inject $fault fails the run, as it must"
done
