package main

import (
	"os"
	"syscall"
	"unsafe"
)

// spreadDirs marks dir so that ext4 places each directory created in it
// in a fresh block group (the "top directory" flag, chattr +T). Without
// it every store a run creates lands in the block group its parent
// directory sits in, and creating files there slows down sharply once
// earlier runs have created and deleted many records in that group: the
// store-cold timings would then depend on how many runs came before. It
// is best-effort; other filesystems ignore or reject the flag.
func spreadDirs(dir string) {
	const (
		fsIocGetFlags = 0x80086601 // FS_IOC_GETFLAGS
		fsIocSetFlags = 0x40086602 // FS_IOC_SETFLAGS
		fsTopDirFl    = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopDirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
