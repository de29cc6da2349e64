#!/usr/bin/env bash
# Prints one line per evaluation config: "model precision device fraction
# sha256", where the digest covers the full `--design both --format json`
# report of that config (both plans, their simulations and the design).
# The configs are every built-in model x 8/16/32-bit x vu9p/zu9eg/u250 x
# --capacity-fraction 0.5/0.73/0.9 (297 lines).
#
# Two builds left the same plans exactly when their outputs are equal:
#
#   tools/plan_digests.sh build/tools/lcmm_compile > head.txt
#   tools/plan_digests.sh ../base/build/tools/lcmm_compile > base.txt
#   diff base.txt head.txt
#
# Exits 1 if any compile failed (its line still prints, with the digest of
# whatever it wrote), 2 on a usage error.
set -u -o pipefail

if [ $# -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 <path to lcmm_compile>" >&2
  exit 2
fi
compile=$1

models="resnet18 resnet34 resnet50 resnet101 resnet152 googlenet
        inception_v4 alexnet vgg16 mobilenet_v1 squeezenet"
status=0
for m in $models; do
  for p in 8 16 32; do
    for d in vu9p zu9eg u250; do
      for f in 0.5 0.73 0.9; do
        if ! digest=$("$compile" --model "$m" --precision "$p" --device "$d" \
                        --design both --format json --capacity-fraction "$f" |
                      sha256sum | cut -d' ' -f1); then
          echo "$0: compile failed: $m $p $d $f" >&2
          status=1
        fi
        echo "$m $p $d $f $digest"
      done
    done
  done
done
exit $status
