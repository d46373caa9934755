module paracrash/benchmark

go 1.22

require paracrash v0.0.0

replace paracrash => ../
