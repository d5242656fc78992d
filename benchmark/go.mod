module pdcquery/benchmark

go 1.22

require pdcquery v0.0.0

replace pdcquery => ../
