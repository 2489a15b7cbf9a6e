#!/bin/sh
# The benchmark's one command: build the module in this directory and run it
# from wherever the caller stands. Arguments go to the program unchanged.
# Build cache, temporary files, the toolchain's own configuration directory
# (it keeps usage counters there) and the binary stay under .build/, so that
# a run writes nothing outside its checkout.
cd "$(dirname "$0")" || exit 1
export GOCACHE="$PWD/.build/cache" GOTMPDIR="$PWD/.build/tmp" XDG_CONFIG_HOME="$PWD/.build/config"
mkdir -p "$GOTMPDIR" && go build -o .build/benchmark . && exec .build/benchmark "$@"
