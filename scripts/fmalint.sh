#!/usr/bin/env bash
# Fused multiply-add lint: compiles every non-test package of the module for
# the architectures whose Go compiler fuses x*y + z into one instruction
# (arm64, ppc64le, s390x, riscv64), with the assembly listing on, and fails
# naming each source line where it did. A fused operation skips the rounding
# of the product, so the same seed could give a different float, and a
# different trace, digest or golden, there than on amd64, which never fuses
# implicitly. An explicit float64(...) around the product keeps the rounding
# (the Go spec's rule for conversions) and is a no-op on amd64.
#
# Usage: bash scripts/fmalint.sh   (GO=... picks the toolchain)
# The listings come from the build cache after the first run per
# architecture, which cold takes about half a minute each.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
fused=$'\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB)\t'
root="$(pwd)/"
status=0
for arch in arm64 ppc64le s390x riscv64; do
	asm=$(GOOS=linux GOARCH=$arch "$GO" build -gcflags='erms/...=-S' ./... 2>&1) || {
		echo "$asm" >&2
		echo "fmalint: GOARCH=$arch build failed" >&2
		exit 1
	}
	hits=$(grep -E "$fused" <<<"$asm" |
		sed -E 's/^[^(]*\(([^)]*)\)[^\t]*\t([A-Z]+)\t.*/\1 \2/' | sed "s|^$root||" | sort -u) || true
	if [ -n "$hits" ]; then
		echo "fmalint: GOARCH=$arch fuses a multiply-add at:"
		echo "$hits" | sed 's/^/  /'
		status=1
	fi
done
if [ "$status" -ne 0 ]; then
	echo "fmalint: wrap each product in float64(...) so it is rounded before the add"
	exit 1
fi
echo "fmalint: no fused multiply-add on arm64, ppc64le, s390x, riscv64"
