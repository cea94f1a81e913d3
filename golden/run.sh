#!/bin/sh
# Replay the golden command list in a fresh working directory:
#
#     golden/run.sh WORKDIR
#
# WORKDIR is created if needed and seeded with the golden inputs; the
# transcript goes to stdout. Running twice into two directories gives
# byte-identical transcripts, and every file under WORKDIR/out
# re-verifies with exit 0. The pinned transcript is golden/transcript.txt:
#
#     golden/run.sh WORKDIR | cmp - golden/transcript.txt
#
# Without an installed xmodkit console script on PATH, the commands run
# as `python3 -m xmodkit` with this checkout's src on PYTHONPATH.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
work=${1:?usage: run.sh WORKDIR}
if command -v xmodkit >/dev/null 2>&1; then
    xmodkit() { command xmodkit "$@"; }
else
    PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}"
    export PYTHONPATH
    xmodkit() { python3 -m xmodkit "$@"; }
fi
mkdir -p "$work/out"
cp "$here"/*.mci "$work"
cd "$work"
while IFS= read -r line || [ -n "$line" ]; do
    case $line in ''|\#*) continue ;; esac
    printf '$ xmodkit %s\n' "$line"
    set +e
    # word splitting of $line is intentional
    xmodkit $line
    code=$?
    set -e
    printf 'exit %d\n' "$code"
done < "$here/commands.txt"
