// Fixture: tools/rsat.cpp is the CLI, the designated home of console I/O,
// so <iostream> there must NOT fire `iostream`.
#include <iostream>

int main() {
  std::cout << "the CLI may talk to std streams\n";
  return 0;
}
