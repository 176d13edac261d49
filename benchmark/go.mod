module phoebedb/benchmark

go 1.22

require phoebedb v0.0.0

replace phoebedb => ../
