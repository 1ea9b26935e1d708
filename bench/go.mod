module lintime/bench

go 1.22

require lintime v0.0.0

replace lintime => ../
