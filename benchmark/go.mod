// The benchmark is a module of its own so that it builds from its own
// directory; the replace keeps it on the engine of the same checkout, and the
// oblivmc/ path prefix is what lets it import oblivmc/internal/... .
module oblivmc/benchmark

go 1.24

require oblivmc v0.0.0

replace oblivmc => ../
