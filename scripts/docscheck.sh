#!/bin/sh
# docscheck verifies that documentation stays anchored to the code. In the
# checked documents, inside code spans and fenced blocks:
#
#   - every `pkg.Identifier` — a lowercase internal package name, a dot, an
#     exported identifier — must name an identifier that still occurs in
#     that package's non-test Go sources;
#   - every `evostore-bench <subcommand> [-flag ...]` must name a subcommand
#     cmd/evostore-bench dispatches (a figure case in main.go, `check`, or a
#     row of the scenario table) and only flags that subcommand defines;
#   - every `make <target>` must name a phony target of the Makefile.
#
# Renaming or deleting any of those without updating the docs fails
# `make docs-check` (and therefore `make check`).
#
# Purely grep-based by design: no build step, no Go toolchain assumptions
# beyond the source tree layout, and spans that do not look like one of
# the three shapes (shell snippets, JSON fields, RPC names) are ignored.
set -eu
cd "$(dirname "$0")/.."

DOCS="docs/ARCHITECTURE.md README.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
fail=0

bench=cmd/evostore-bench
flagnames() { grep -ohE '(Var\(&[A-Za-z.]+, |\.(String|Int|Int64|Bool|Duration|Float64)\()"[a-z-]+"' "$@" | sed 's/.*"\(.*\)"/\1/'; }
figures=$(sed -n 's/^	case "\([a-z0-9]*\)":$/\1/p' $bench/main.go)
scenarios=$(sed -n 's/^	{"\([a-z]*\)", ".*/\1/p' $bench/scenarios.go)
figure_flags=$(flagnames $bench/main.go)
scenario_flags=$(flagnames $bench/harness.go)
targets=$(sed -n 's/^\.PHONY://p' Makefile)
[ -n "$figures" ] && [ -n "$scenarios" ] && [ -n "$scenario_flags" ] && [ -n "$targets" ] ||
    { echo "docscheck: could not read the subcommands, flags or targets out of $bench and Makefile" >&2; exit 1; }

member() { case " $(echo $2) " in *" $1 "*) return 0 ;; esac; return 1; }

for doc in $DOCS; do
    [ -f "$doc" ] || { echo "docscheck: $doc missing" >&2; exit 1; }
    # Fold the document to one line (a line break and its indentation
    # become one space) so a span wrapped by the paragraph filler is still
    # one span, and turn fences into spans.
    spans=$(sed 's/^ *//' "$doc" | tr '\n' ' ' | sed 's/```/`/g' | grep -o '`[^`]*`' || true)

    # `pkg.Ident`, `pkg.Ident.Field`, `pkg.Ident{...}` etc. — capture the
    # package and the first exported identifier after the dot.
    for span in $(printf '%s\n' "$spans" | grep -o '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*' | tr -d '`' | sort -u); do
        pkg=${span%%.*}
        ident=$(printf '%s' "${span#*.}" | sed 's/\..*//')
        dir="internal/$pkg"
        # Not an internal package reference (e.g. `rand.Intn`): skip.
        [ -d "$dir" ] || continue
        if ! grep -qw "$ident" "$dir"/*.go 2>/dev/null; then
            echo "docscheck: $doc references \`$span\` but $dir has no identifier $ident" >&2
            fail=1
        fi
    done

    # evostore-bench <sub> [-flag [value]]...
    printf '%s\n' "$spans" | grep -oE 'evostore-bench [a-z][a-z0-9]*( +-[a-z][a-z-]*(=[^ `]*)?( +[^-` ][^ `]*)?)*' | sort -u |
    while read -r _ sub rest; do
        if member "$sub" "$scenarios check"; then
            allowed=$scenario_flags
        elif member "$sub" "$figures"; then
            allowed=$figure_flags
        else
            echo "docscheck: $doc runs \`evostore-bench $sub\` but $bench dispatches no such subcommand" >&2
            echo fail
            continue
        fi
        for word in $rest; do
            case $word in
            -*) flag=${word#-}; flag=${flag%%=*}
                if ! member "$flag" "$allowed"; then
                    echo "docscheck: $doc runs \`evostore-bench $sub -$flag\` but that subcommand defines no flag -$flag" >&2
                    echo fail
                fi ;;
            esac
        done
    done | grep fail >/dev/null && fail=1

    # make <target>
    for target in $(printf '%s\n' "$spans" | grep -oE '(^|[` ])make [a-z][a-z-]*' | sed 's/.*make //' | sort -u); do
        if ! member "$target" "$targets"; then
            echo "docscheck: $doc runs \`make $target\` but the Makefile has no such target" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docscheck: FAILED — update the docs or restore what they name" >&2
    exit 1
fi
echo "docscheck: ok"
