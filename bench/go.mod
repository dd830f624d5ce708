module mets/bench

go 1.22

require mets v0.0.0

replace mets => ../
