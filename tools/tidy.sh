#!/usr/bin/env bash
# clang-tidy gate over every first-party translation unit. Check groups
# live in .clang-tidy (bugprone-*, concurrency-*, performance-*, a
# modernize subset); concurrency-* exists for the one threaded corner of
# the tree — the annotated mutex wrappers and the process-wide caches
# they guard.
#
# Usage: tools/tidy.sh [build-dir]
#   build-dir must contain compile_commands.json (any preset configures one:
#   cmake --preset release). Defaults to build/.
#
# Skips with a notice (exit 0) when clang-tidy is not installed — the base
# image ships only gcc; the lint still runs in environments that have LLVM.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

TIDY="$(command -v clang-tidy || true)"
if [[ -z "${TIDY}" ]]; then
  echo "tidy.sh: clang-tidy not found on PATH; skipping (install LLVM to enable)" >&2
  exit 0
fi

if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
  echo "tidy.sh: ${BUILD_DIR}/compile_commands.json missing;" \
       "configure with cmake --preset release first" >&2
  exit 2
fi

# The file list comes from the build's own compile_commands.json (every
# preset exports one), so the lint surface is exactly the set of TUs the
# build compiles — no drift between find(1) globs and reality, and the same
# database astlint.py analyzes.
mapfile -t FILES < <(python3 - "${BUILD_DIR}/compile_commands.json" <<'PY'
import json, os, sys
repo = os.getcwd()
files = set()
with open(sys.argv[1]) as f:
    for entry in json.load(f):
        path = os.path.realpath(os.path.join(entry["directory"], entry["file"]))
        if path.startswith(repo + os.sep):
            files.add(os.path.relpath(path, repo))
print("\n".join(sorted(files)))
PY
)
echo "tidy.sh: linting ${#FILES[@]} TUs from ${BUILD_DIR}/compile_commands.json" \
     "with $("${TIDY}" --version | head -n1)"

RUNNER="$(command -v run-clang-tidy || true)"
if [[ -n "${RUNNER}" ]]; then
  "${RUNNER}" -quiet -p "${BUILD_DIR}" "${FILES[@]}"
else
  "${TIDY}" -quiet -p "${BUILD_DIR}" "${FILES[@]}"
fi
echo "tidy.sh: clean"
