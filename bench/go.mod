module edgeejb/bench

go 1.23

require edgeejb v0.0.0

replace edgeejb => ../
