module ppaclust/benchmark

go 1.22

require ppaclust v0.0.0

replace ppaclust => ../
