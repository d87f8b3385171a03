#!/usr/bin/env sh
# Line count of the C++ sources: the non-blank lines of every *.?pp file git
# tracks under src/ and under bench/, then their sum. Line-count targets for
# the library and its benches are stated in this figure.
#
#   usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

count() {
    git ls-files -z -- "$1/*.?pp" | xargs -0 cat | grep -c -v '^[[:space:]]*$'
}

src=$(count src)
bench=$(count bench)
echo "src   $src"
echo "bench $bench"
echo "total $((src + bench))"
