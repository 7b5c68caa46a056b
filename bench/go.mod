module conman/bench

go 1.21

require conman v0.0.0

replace conman => ../
