#!/usr/bin/env bash
# Re-pin the golden registry, tests/goldens.txt, from the suites that read it.
#
#   tests/regen_goldens.sh             print `golden <name>: <old> -> <new>`
#                                      for each moved row; write nothing
#   tests/regen_goldens.sh "<reason>"  and rewrite those rows with the new
#                                      value, `<HEAD>+`, today and the reason
#
# Exits 0 when every golden is current (nothing is written), 2 when values
# moved and no reason was given, and 1 on anything else: a suite failing for
# another reason, a name checked at two values, a check with no row, or a
# re-pin the suites still reject (the registry is then restored). A re-pin
# lands only with its physical evidence beside it (DESIGN.md, "Goldens").
set -euo pipefail
cd "$(dirname "$0")/.."

registry=tests/goldens.txt
reason=${1-}
log=$(mktemp)
trap 'rm -f "$log" "$log.bak"' EXIT

run_suites() {
    cargo test --offline --workspace --no-fail-fast \
        --test exec_context --test sections --test sslv_mesh_golden >"$log" 2>&1
}

status=0
run_suites || status=$?
moved=$(grep -E '^golden [^ ]+: [^ ]+ -> [^ ]+$' "$log" | sort -u || true)
other=$(grep -E '^golden ' "$log" | grep -v ' -> ' | sort -u || true)

if [ -n "$other" ]; then
    echo "$other"
    echo "regen_goldens: not a re-pin (add a new check's row first); nothing written" >&2
    exit 1
fi
if [ -z "$moved" ]; then
    if [ "$status" -ne 0 ]; then
        tail -n 40 "$log"
        echo "regen_goldens: the suites fail and no golden moved; nothing written" >&2
        exit 1
    fi
    echo "regen_goldens: every golden is current"
    exit 0
fi
echo "$moved"
if [ -z "$reason" ]; then
    echo "regen_goldens: refusing to write without a reason: $0 \"<reason>\"" >&2
    exit 2
fi
case $reason in *$'\n'*)
    echo "regen_goldens: the reason is one line" >&2
    exit 1
    ;;
esac

cp "$registry" "$log.bak"
MOVED=$moved STAMP="$(git rev-parse --short HEAD)+ $(date -u +%F)" REASON=$reason awk '
    BEGIN {
        n = split(ENVIRON["MOVED"], lines, "\n")
        for (i = 1; i <= n; i++) {
            split(lines[i], f, " ")
            new[substr(f[2], 1, length(f[2]) - 1)] = f[5]
        }
    }
    !/^#/ && ($1 in new) {
        match($0, /^[^ ]+ +/)
        printf "%s%-18s %s %s\n", substr($0, 1, RLENGTH), new[$1], ENVIRON["STAMP"], ENVIRON["REASON"]
        next
    }
    { print }
' "$log.bak" >"$registry"
echo "regen_goldens: wrote $(echo "$moved" | wc -l) row(s); re-running the suites"
if ! run_suites; then
    cp "$log.bak" "$registry"
    grep -E '^golden ' "$log" | sort -u || tail -n 40 "$log"
    echo "regen_goldens: the suites still fail after the re-pin; registry restored" >&2
    exit 1
fi
echo "regen_goldens: every golden is current"
