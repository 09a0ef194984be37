#!/usr/bin/env bash
# Determinism lint: forbid unordered HashMap/HashSet iteration in the
# simulator crates.
#
# Iterating a std HashMap/HashSet visits entries in randomized order —
# the exact bug class behind the TLB completion-order and §7.6 plan-order
# fixes: simulation results that depend on hasher seed or insertion
# history. Simulator state must iterate in a deterministic order
# (BTreeMap, sorted scratch vectors, or explicit ordering).
# nuba_types::IntMap (HashMap over the fixed-seed integer hasher) drops
# the per-process seed but still iterates by capacity and insertion
# history — a restored map and the one it was saved from differ — so it
# is linted exactly like HashMap.
#
# Mechanics: for each file in the simulator crates that declares one of
# those containers, collect the declared variable/field names, then flag
# lines that iterate those names (`.iter()`, `.keys()`, `.values()`,
# `.drain()`, `.retain()`, `.into_iter()`, `for … in &name`). Known-safe
# sites (order-independent folds, lines that sort immediately after)
# live in tools/determinism_allowlist.txt as `path:trimmed-line` pairs;
# anything not allowlisted fails the lint. Run from anywhere; CI runs it
# on every push.

set -euo pipefail
cd "$(dirname "$0")/.."

CRATES="types engine core noc dram tlb driver cache workloads bench"
ALLOWLIST=tools/determinism_allowlist.txt

# Type names that mean "unordered hash container".
MAPS='(Hash(Map|Set)|IntMap)'

ITER_METHODS='(iter|iter_mut|keys|values|values_mut|drain|into_iter|into_keys|into_values|retain|extend)'

hits_file=$(mktemp)
trap 'rm -f "$hits_file"' EXIT

for crate in $CRATES; do
    dir="crates/$crate/src"
    [ -d "$dir" ] || continue
    while IFS= read -r f; do
        # Names bound to HashMap/HashSet in this file: struct fields and
        # typed lets (`name: HashMap<…>`), plus inferred lets
        # (`let [mut] name = HashMap::…`).
        names=$( {
            grep -oE "[a-z_][a-z0-9_]*[[:space:]]*:[[:space:]]*([a-z_]+::)*${MAPS}<" "$f" \
                | sed -E 's/[[:space:]]*:.*//' || true
            grep -oE "let (mut )?[a-z_][a-z0-9_]*([[:space:]]*:[^=]*)?=[[:space:]]*([a-z_]+::)*${MAPS}::" "$f" \
                | sed -E 's/^let (mut )?//; s/[[:space:]]*(:[^=]*)?=.*//' || true
        } | sort -u )
        [ -n "$names" ] || continue
        for name in $names; do
            { grep -nE "(^|[^a-zA-Z0-9_])${name}\.${ITER_METHODS}\(|for [^;{]+ in &(mut )?([a-z_][a-z0-9_]*\.)*${name}([^a-zA-Z0-9_]|\$)" "$f" || true; } \
                | while IFS= read -r hit; do
                    content=$(printf '%s' "${hit#*:}" | sed -E 's/^[[:space:]]+//; s/[[:space:]]+$//')
                    printf '%s:%s\n' "$f" "$content" >> "$hits_file"
                done
        done
    done < <(grep -rlE "${MAPS}(<|::)" "$dir" --include='*.rs' || true)
done

sort -u "$hits_file" -o "$hits_file"

status=0
new_hits=0
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    if ! grep -qxF "$hit" "$ALLOWLIST" 2>/dev/null; then
        if [ "$new_hits" -eq 0 ]; then
            echo "determinism lint: unordered HashMap/HashSet iteration in simulator crates:" >&2
        fi
        echo "  $hit" >&2
        new_hits=$((new_hits + 1))
        status=1
    fi
done < "$hits_file"

# Stale allowlist entries are an error too: the allowlist must describe
# the code as it is, or deleted hazards linger as blanket exemptions.
while IFS= read -r entry; do
    case "$entry" in
        ''|'#'*) continue ;;
    esac
    if ! grep -qxF "$entry" "$hits_file"; then
        echo "determinism lint: stale allowlist entry (no longer matches any code): $entry" >&2
        status=1
    fi
done < "$ALLOWLIST"

if [ "$status" -eq 0 ]; then
    echo "determinism lint: ok ($(wc -l < "$hits_file" | tr -d ' ') allowlisted site(s))"
else
    echo "determinism lint: FAILED — iterate via BTreeMap / a sorted scratch vector," >&2
    echo "or add a justified entry to $ALLOWLIST" >&2
fi
exit "$status"
