#!/bin/sh
# loc prints the size of the program as ROADMAP's design-quality aim counts
# it: non-test Go lines (plain `wc -l`, comments and blanks included, so
# reformatting or comment stripping shows up as what it is) per package and
# in total, excluding the benchmark under bench/, followed by the option
# surface — client.With* functional options, core.Options fields, the flags
# of the two operator binaries, the flags of evostore-bench's scenario
# subcommands (every non-test file but main.go, which holds the figure
# subcommands), and the Makefile's phony targets. Run it on the parent
# commit and on the change to get a before/after a reviewer can reproduce.
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
    sed 's|^\./||' | sort | xargs wc -l | awk '
    $2 == "total" { next }
    {
        dir = $2
        if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
        lines[dir] += $1
        total += $1
    }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total non-test Go lines (bench/ excluded)\n", total
    }'

count() { grep -c "$@" || true; }
echo
printf '%7d  client.With* options\n' "$(cat internal/client/*.go | count '^func With[A-Z]')"
printf '%7d  core.Options fields\n' "$(awk '/^type Options struct {/ {on = 1; next} on && /^}/ {exit} on && /^\t[A-Z]/' internal/core/core.go | count .)"
flagdef='\.(String|Int|Int64|Uint|Uint64|Bool|Duration|Float64)\("'
for bin in evostore-server evostore-ctl; do
    printf '%7d  %s flags\n' "$(count -E "$flagdef" "cmd/$bin/main.go")" "$bin"
done
printf '%7d  evostore-bench scenario flags\n' "$(find cmd/evostore-bench -name '*.go' ! -name '*_test.go' ! -name main.go -exec cat {} + | count -E "$flagdef")"
printf '%7d  make phony targets\n' "$(sed -n 's/^\.PHONY://p' Makefile | wc -w)"
