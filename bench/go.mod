module sam/bench

go 1.24

require sam v0.0.0

replace sam => ../
