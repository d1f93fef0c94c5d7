module sgtree/bench

go 1.22

require sgtree v0.0.0

replace sgtree => ../
