module paradl/bench

go 1.24

require paradl v0.0.0

replace paradl => ../
