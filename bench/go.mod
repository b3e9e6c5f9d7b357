module samrdlb/bench

go 1.22

require samrdlb v0.0.0

replace samrdlb => ../
