module pinbcast/cmd/bdload

go 1.24

require pinbcast v0.0.0

replace pinbcast => ../..
