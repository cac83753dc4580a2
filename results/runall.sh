#!/bin/sh
set -e
cd "$(dirname "$0")"
for fig in 3 4 5 6; do
  go run ../cmd/repartbench -figure $fig -trials 2 -epochs 2 -procs 4,8,16 -alphas 1,10,100,1000 > figure$fig.txt 2>&1
done
go run ../cmd/repartbench -figure 7 -trials 2 -epochs 2 -procs 4,8,16 -alphas 1,100 > figure7.txt 2>&1
go run ../cmd/repartbench -figure 8 -trials 2 -epochs 2 -procs 4,8,16 -alphas 1,100 > figure8.txt 2>&1
go run ../cmd/repartbench -parallel -dataset auto -scale 3000 -procs 2,4,8,16 -alphas 10 > parallel.txt 2>&1
