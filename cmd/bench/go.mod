module planetapps/cmd/bench

go 1.22

require planetapps v0.0.0

replace planetapps => ../..
