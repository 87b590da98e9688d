#!/usr/bin/env bash
# Leakage-mutant catalogue: every testdata/mutants/NN-name.patch is a leak or
# bug the suite once let through, or could. Its header says what the mutant
# does and names, one "Must fail: <package> <Test>" line each, the tests that
# must catch it. For each patch this script copies the working tree to a
# temporary directory, applies the patch there, builds the named packages'
# tests and runs each named test alone; every one of them must fail. It exits
# non-zero if a mutant no longer applies or builds, or if a named test passes
# on it (the mutant survives). Run via `make mutants`; pass patch paths to run
# only those.
set -euo pipefail

cd "$(dirname "$0")/.."

patches=("$@")
if [[ ${#patches[@]} -eq 0 ]]; then
    patches=(testdata/mutants/*.patch)
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

failed=0
for patch in "${patches[@]}"; do
    name="$(basename "$patch" .patch)"
    abs="$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")"
    dir="$TMP/$name"
    mkdir -p "$dir"
    git ls-files -co --exclude-standard -z |
        while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
        xargs -0 cp --parents -t "$dir"
    if ! (cd "$dir" && git apply "$abs"); then
        echo "FAIL $name: the patch no longer applies; regenerate it against the code that moved"
        failed=1
        continue
    fi
    kills="$(sed -n 's/^Must fail: //p' "$patch")"
    if [[ -z "$kills" ]]; then
        echo "FAIL $name: the header names no test that must fail"
        failed=1
        continue
    fi
    if ! (cd "$dir" && go vet $(echo "$kills" | awk '{print $1}' | sort -u) >/dev/null); then
        echo "FAIL $name: the mutant does not build"
        failed=1
        continue
    fi
    while read -r pkg test; do
        if (cd "$dir" && go test -count=1 -run "^${test}\$" "$pkg" >"$TMP/out" 2>&1); then
            echo "FAIL $name: survives $pkg $test"
            failed=1
        elif ! grep -q -- "--- FAIL: ${test} " "$TMP/out"; then
            echo "FAIL $name: $pkg $test did not run and fail"
            cat "$TMP/out"
            failed=1
        else
            echo "ok   $name: killed by $pkg $test"
        fi
    done <<<"$kills"
    rm -rf "$dir"
done
exit "$failed"
