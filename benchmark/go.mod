module pbqpdnn/benchmark

go 1.24

require pbqpdnn v0.0.0

replace pbqpdnn => ../
