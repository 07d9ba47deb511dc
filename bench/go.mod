module sailfish/bench

go 1.22

require sailfish v0.0.0

replace sailfish => ../
