module nodesampling/benchmark

go 1.24

require nodesampling v0.0.0

replace nodesampling => ../
