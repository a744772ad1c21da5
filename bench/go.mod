module udt/bench

go 1.22

require udt v0.0.0

replace udt => ../
