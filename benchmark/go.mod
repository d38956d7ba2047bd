module taskdep/benchmark

go 1.22

require taskdep v0.0.0

replace taskdep => ../
