module havoqgt/bench

go 1.22

require havoqgt v0.0.0

replace havoqgt => ../
