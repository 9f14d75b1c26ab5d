module apspark/benchmark

go 1.24

require apspark v0.0.0

replace apspark => ../
