// The benchmark's contract wants a compiled benchmark to be a package of
// its own with its own build file, so this is a module and not a package of
// the root one. Its path keeps the xkaapi/ prefix, which is what lets it
// import xkaapi/internal/... packages.
module xkaapi/benchmark

go 1.24

require xkaapi v0.0.0

replace xkaapi => ../
