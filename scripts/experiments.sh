#!/usr/bin/env bash
# Regenerate the generated "Measured" blocks of EXPERIMENTS.md from the
# experiment binaries at their default sizes, and the Fig. 7 images.
#
#   scripts/experiments.sh          rewrite the blocks and results/fig7_step_*.pgm
#   scripts/experiments.sh --check  regenerate, then exit 1 if a block of
#                                   EXPERIMENTS.md or a committed image differs
#
# A generated block is the verbatim stdout of one command, fenced as text
# between the lines "<!-- BEGIN <name> -->" and "<!-- END <name> -->", where
# <name> is the binary's name.
# Paper-scale runs stay out of these blocks; EXPERIMENTS.md names the
# command and commit of each of those by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
  --check) check=1 ;;
  "") ;;
  *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

names="fig5_archetype_census fig7_example_run fig10_candidates thm8_reductions mmm_validate"
cargo build --release --quiet -p hetmmm-bench $(printf -- '--bin %s ' $names)
bin="${CARGO_TARGET_DIR:-target}/release"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The binaries' output must not depend on the caller's observability
# settings or results directory. Arguments after the name go to the binary.
run() {
  name=$1
  shift
  env -u HETMMM_RESULTS -u HETMMM_OBS_JSONL -u HETMMM_OBS_FMT -u HETMMM_OBS_FINE_SPANS \
    "$bin/$name" "$@" > "$tmp/$name.txt"
}

run fig5_archetype_census
# fig7_example_run writes one image per snapshot: clear the old set first,
# so a snapshot that is no longer taken does not leave its image behind.
rm -f results/fig7_step_*.pgm
run fig7_example_run
run fig10_candidates --n 60 --p 5 --r 2 --s 1
run thm8_reductions
run mmm_validate

cp EXPERIMENTS.md "$tmp/EXPERIMENTS.md"
for name in $names; do
  for marker in BEGIN END; do
    if [ "$(grep -cx "<!-- $marker $name -->" "$tmp/EXPERIMENTS.md")" != 1 ]; then
      echo "EXPERIMENTS.md: expected one '<!-- $marker $name -->' line" >&2
      exit 1
    fi
  done
  awk -v name="$name" -v file="$tmp/$name.txt" '
    $0 == "<!-- BEGIN " name " -->" {
      print
      print "```text"
      while ((getline line < file) > 0) print line
      print "```"
      skip = 1
      next
    }
    $0 == "<!-- END " name " -->" { skip = 0 }
    !skip { print }
  ' "$tmp/EXPERIMENTS.md" > "$tmp/next.md"
  mv "$tmp/next.md" "$tmp/EXPERIMENTS.md"
done

if [ "$check" = 0 ]; then
  cp "$tmp/EXPERIMENTS.md" EXPERIMENTS.md
  exit 0
fi

status=0
if ! diff -u EXPERIMENTS.md "$tmp/EXPERIMENTS.md"; then
  echo "EXPERIMENTS.md: a generated block differs from its binary's output" >&2
  status=1
fi
images=$(git status --porcelain -- 'results/fig7_step_*.pgm')
if [ -n "$images" ]; then
  echo "results/: the committed Fig. 7 images differ from fig7_example_run's:" >&2
  echo "$images" >&2
  status=1
fi
if [ "$status" != 0 ]; then
  echo "run scripts/experiments.sh and commit what it changes" >&2
fi
exit "$status"
