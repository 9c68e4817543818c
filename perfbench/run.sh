#!/usr/bin/env bash
# Builds the benchmark (once per state of the sources) and runs it:
#
#   bash perfbench/run.sh --workload fleet|session|compare --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything built or written goes under
# .bench_build/ (plus sbt's target/ directories).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f build.sbt ] || [ ! -d src/main/scala ] || [ ! -d jobs ]; then
  echo "perfbench: the program's sources (build.sbt, src/, jobs/) are missing under $root" >&2
  exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

# Rebuild only when a source or build file changed since the last build.
stamp="$(find build.sbt project/build.properties src/main jobs perfbench \
  \( -name target -prune \) -o -type f \( -name '*.scala' -o -name '*.sbt' -o -name '*.properties' \) -print \
  | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)"
if [ "$(cat "$out/stamp" 2>/dev/null || true)" != "$stamp" ]; then
  rm -f "$out/stamp"
  # Offline build: sbt resolves from the repositories its standard
  # repositories file lists, unless the caller set its own sbt options.
  export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories}"
  # sbt guards its start-up with a unix socket under XDG_RUNTIME_DIR, else
  # under java.io.tmpdir; unsetting the former keeps the socket inside the
  # checkout. Under a long checkout path the socket name does not fit the
  # kernel's limit and sbt would exit with code 2; forcestart lets it go on
  # without the socket (this build is the only sbt running on it).
  (
    cd perfbench
    unset XDG_RUNTIME_DIR
    COURSIER_MODE=offline JAVA_TOOL_OPTIONS=-XX:-UsePerfData sbt --batch -Dsbt.server.autostart=false \
      -Dsbt.server.forcestart=true -Dsbt.offline=true \
      -Dsbt.global.base="$out/sbt-global" -Dsbt.ivy.home="$out/ivy" -Djava.io.tmpdir="$out/tmp" \
      -Dperfbench.launcher="$out" writeLauncher
  ) >&2
  echo "$stamp" > "$out/stamp"
fi

# Heap fixed at its maximum so that heap resizing does not drift the timings.
mapfile -t jvm_opts < "$out/jvm-options"
exec java -Xms2g -Xmx2g -XX:-UsePerfData "${jvm_opts[@]}" \
  -Djava.io.tmpdir="$out/tmp" -Dperfbench.sparkDir="$out/spark" \
  -Dspark.driver.host=127.0.0.1 \
  -cp "$(cat "$out/classpath")" perfbench.Main "$@"
