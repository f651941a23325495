//go:build !linux

package main

// spreadDirs is a no-op off Linux; see scratch_linux.go.
func spreadDirs(string) {}
