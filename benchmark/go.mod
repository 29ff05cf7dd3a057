module github.com/open-metadata/xmit/benchmark

go 1.23

require github.com/open-metadata/xmit v0.0.0

replace github.com/open-metadata/xmit => ../
