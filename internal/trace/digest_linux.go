package trace

import (
	"os"
	"syscall"
)

// statID returns path's stat identity, or false for anything but a
// regular file (a pipe or device has no content a stat can vouch for).
func statID(path string) (fileID, bool) {
	fi, err := os.Stat(path)
	if err != nil || !fi.Mode().IsRegular() {
		return fileID{}, false
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return fileID{}, false
	}
	return fileID{
		Dev:     uint64(st.Dev),
		Ino:     uint64(st.Ino),
		Size:    st.Size,
		MtimeNS: st.Mtim.Nano(),
		CtimeNS: st.Ctim.Nano(),
	}, true
}
