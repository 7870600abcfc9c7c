module kite/benchmark

go 1.24

require kite v0.0.0

replace kite => ../
