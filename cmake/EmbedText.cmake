# Writes the bytes of IN to OUT as one C++ raw string literal:
#   cmake -DIN=<text file> -DOUT=<file to #include> -P EmbedText.cmake
file(READ "${IN}" Text)
file(WRITE "${OUT}" "R\"LLHD_EMBED(${Text})LLHD_EMBED\"\n")
