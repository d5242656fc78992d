package bitindex

// BinStep exposes the bin-width rule to the external reference tests.
var BinStep = binStep
