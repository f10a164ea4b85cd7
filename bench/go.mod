// The benchmark is a module of its own so that it builds from its own
// directory and the root module's `go build ./...` never sees it. The module
// path sits under taurus/ so that Go's internal-package rule still admits
// taurus/internal/... imports (all of them in adapter.go).
module taurus/bench

go 1.24

require taurus v0.0.0

replace taurus => ../
