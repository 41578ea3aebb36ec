module dimred/bench

go 1.24

require dimred v0.0.0

replace dimred => ../
