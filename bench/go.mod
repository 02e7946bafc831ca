module adwars/bench

go 1.22

require adwars v0.0.0

replace adwars => ../
