package tir

// SorIR exposes the hand-written module of parser_test.go to the
// external test package.
const SorIR = sorIR
