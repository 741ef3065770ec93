#!/bin/sh
# Counts the code lines of the Rust sources under each directory given:
# every line outside a `#[cfg(test)] mod tests { ... }` block that is
# neither blank nor a comment-only line (`//`, `///`, `//!`). A test
# module ends at the first line that is its opening line's indentation
# followed by `}`.
#
# Usage: tools/code_lines.sh DIR...
#
# Prints each file's count, then one `<count> <dir>` total line per
# directory.
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: $0 DIR..." >&2
    exit 2
fi

for dir in "$@"; do
    find "$dir" -name '*.rs' -type f | LC_ALL=C sort | xargs awk '
        FNR == 1 { if (file != "") print count, file; file = FILENAME; count = 0; cfg = 0; skip = 0 }
        skip { if ($0 == close_line) skip = 0; next }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { cfg = 1; next }
        cfg && /^[ \t]*(pub(\([a-z]+\))? )?mod tests[ \t]*\{[ \t]*$/ {
            cfg = 0
            skip = 1
            match($0, /^[ \t]*/)
            close_line = substr($0, 1, RLENGTH) "}"
            next
        }
        # A `#[cfg(test)]` on anything but the test module is code.
        cfg { cfg = 0; count++ }
        /^[ \t]*$/ { next }
        /^[ \t]*\/\// { next }
        { count++ }
        END { if (file != "") print count, file }
    ' | awk -v dir="$dir" '
        { total += $1; printf "%7d %s\n", $1, $2 }
        END { printf "%d %s\n", total, dir }
    '
done
