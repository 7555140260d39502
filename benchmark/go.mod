module cubism/benchmark

go 1.22

require cubism v0.0.0

replace cubism => ../
