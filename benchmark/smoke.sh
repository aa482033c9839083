#!/usr/bin/env bash
# Wiring check for CI: build the benchmark, run its own tests, then run
# every workload at 1/20 size, untraced and traced. Takes well under a
# minute after the build. The numbers it prints mean nothing: output is
# stamped "smoke": true and `spine aa` refuses it.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --locked --offline
cargo test --locked --offline --quiet
spine="${CARGO_TARGET_DIR:-target}/release/spine"

"$spine" list > /dev/null
"$spine" run --smoke
"$spine" run --smoke --workload canon-mix --trace 1 > /dev/null
echo "smoke: ok"
