# Developer entry points. `make ci` is the gate every change must pass;
# `make bench` records repeated benchmark runs (scripts/bench.sh).

.PHONY: ci test bench build

build:
	go build ./...

test:
	go test ./...

ci:
	./scripts/ci.sh

bench:
	./scripts/bench.sh
